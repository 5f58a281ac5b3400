//! The listener and per-connection service loop.
//!
//! Thread-per-connection: the accept loop hands every connection to a
//! worker thread holding its own `BufReader`/writer clone of the
//! socket. The session pool is the registry of live connections —
//! bounded by [`ServerConfig::max_sessions`], with a writer clone of
//! every stream retained so graceful shutdown can unblock parked
//! reads — and the artifact cache ([`gsim_codegen::ArtifactCache`])
//! is the shared substrate that makes session startup cheap: the
//! first session for a design pays `rustc`, every later one reuses
//! the published binary.
//!
//! Per-session isolation: each connection gets a private scratch
//! directory (the compiled child process's working directory), so
//! concurrent sessions on one cached artifact never share mutable
//! filesystem state; idleness is bounded by a per-session read
//! timeout.

use crate::net::{Endpoint, Listener, Stream};
use crate::proto::SessionProto;
use gsim_codegen::{AotOptions, ArtifactCache, ArtifactKey, CacheStats};
use gsim_sim::wire::{self, Command, LineRead, WireError};
use gsim_sim::{
    ExploreOptions, Explorer, FaultPlan, GsimError, Scenario, Session, SessionFactory, SimOptions,
    Simulator, SuperviseOptions, SupervisedSession,
};
use std::collections::HashMap;
use std::io::{BufReader, Read, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Root of the on-disk artifact cache (also hosts the per-session
    /// scratch directories under `scratch/`).
    pub cache_dir: PathBuf,
    /// Artifact-cache capacity (entries) before LRU eviction.
    pub cache_capacity: usize,
    /// Maximum concurrent sessions; excess connections are refused
    /// with a `config` error.
    pub max_sessions: usize,
    /// Per-session idle bound: a connection with no traffic for this
    /// long is closed (`None` = unbounded).
    pub idle_timeout: Option<Duration>,
    /// Deterministic fault injection for the chaos suite (empty in
    /// production). Honoured by the artifact cache (publish faults),
    /// the session loop (`reset_session_at_cmd`,
    /// `panic_session_at_cmd`, `short_writes`), and the AoT child
    /// processes (`kill_child_at_cycle` / `stall_child_at_cycle`,
    /// first spawn only — respawns come up clean so recovery can
    /// succeed).
    pub faults: FaultPlan,
}

impl ServerConfig {
    /// Defaults: 64-entry cache, 64 sessions, 5-minute idle timeout.
    pub fn new(endpoint: Endpoint, cache_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            endpoint,
            cache_dir: cache_dir.into(),
            cache_capacity: ArtifactCache::DEFAULT_CAPACITY,
            max_sessions: 64,
            idle_timeout: Some(Duration::from_secs(300)),
            faults: FaultPlan::default(),
        }
    }
}

/// Point-in-time service counters (the `stats` wire line, typed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Connections accepted over the server's lifetime.
    pub sessions: u64,
    /// Currently connected sessions.
    pub active: u64,
    /// Session threads that panicked (caught at the `catch_unwind`
    /// boundary; the server keeps serving).
    pub panics: u64,
    /// AoT `design` requests degraded to the in-process `jit` backend
    /// because the compile failed.
    pub fallbacks: u64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
}

impl ServiceStats {
    /// Renders the `stats …` wire line.
    pub fn render_wire(&self) -> String {
        format!(
            "stats sessions {} active {} hits {} misses {} compiles {} evictions {} panics {} fallbacks {}",
            self.sessions,
            self.active,
            self.cache.hits,
            self.cache.misses,
            self.cache.compiles,
            self.cache.evictions,
            self.panics,
            self.fallbacks
        )
    }

    /// Parses the `stats …` wire line ([`None`] if malformed).
    pub fn parse_wire(line: &str) -> Option<ServiceStats> {
        let mut it = line.split_whitespace();
        if it.next() != Some("stats") {
            return None;
        }
        let mut field = |name: &str| -> Option<u64> {
            (it.next()? == name)
                .then(|| it.next()?.parse().ok())
                .flatten()
        };
        Some(ServiceStats {
            sessions: field("sessions")?,
            active: field("active")?,
            cache: CacheStats {
                hits: field("hits")?,
                misses: field("misses")?,
                compiles: field("compiles")?,
                evictions: field("evictions")?,
            },
            panics: field("panics")?,
            fallbacks: field("fallbacks")?,
        })
    }
}

/// State shared between the accept loop and every session thread.
#[derive(Debug)]
struct Shared {
    cache: ArtifactCache,
    cfg: ServerConfig,
    /// Resolved listen endpoint (for the shutdown self-connect).
    endpoint: Endpoint,
    stop: AtomicBool,
    sessions_total: AtomicU64,
    active: AtomicU64,
    panics: AtomicU64,
    fallbacks: AtomicU64,
    next_id: AtomicU64,
    /// The session pool's roster: a writer clone per live connection,
    /// so shutdown can unblock every parked read.
    registry: Mutex<HashMap<u64, Stream>>,
}

impl Shared {
    fn stats(&self) -> ServiceStats {
        ServiceStats {
            sessions: self.sessions_total.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Flips the stop flag, kicks every live session off its socket,
    /// and unblocks the accept loop with a self-connect.
    fn trigger_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(registry) = self.registry.lock() {
            for stream in registry.values() {
                stream.shutdown();
            }
        }
        let _ = Stream::connect(&self.endpoint);
    }
}

/// A running simulation service. Dropping (or [`Server::stop`])
/// shuts it down gracefully: the listener exits, live sessions are
/// disconnected, their threads unwind.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the endpoint, opens the artifact cache, and starts the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind / cache-directory error.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let mut cache = ArtifactCache::new(&cfg.cache_dir, cfg.cache_capacity)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        cache.set_faults(cfg.faults.clone());
        let (listener, endpoint) = Listener::bind(&cfg.endpoint)?;
        let shared = Arc::new(Shared {
            cache,
            cfg,
            endpoint,
            stop: AtomicBool::new(false),
            sessions_total: AtomicU64::new(0),
            active: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            registry: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The resolved listen endpoint (reports the picked port when the
    /// config asked for `127.0.0.1:0`).
    pub fn endpoint(&self) -> &Endpoint {
        &self.shared.endpoint
    }

    /// Current service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Blocks until the server stops on its own (a client's
    /// `shutdown` command), then cleans up — the `gsim serve`
    /// foreground mode.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Drop runs `stop` for the registry/socket-file cleanup; the
        // accept thread is already joined.
    }

    /// Graceful shutdown: stop accepting, disconnect live sessions,
    /// join the accept loop.
    pub fn stop(&mut self) {
        self.shared.trigger_stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Endpoint::Unix(path) = &self.shared.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || serve_connection(&shared, stream, id));
    }
}

/// One session, cradle to grave: admission, registry, protocol loop,
/// cleanup.
fn serve_connection(shared: &Arc<Shared>, stream: Stream, id: u64) {
    // Admission: bounded session pool.
    let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
    if active > shared.cfg.max_sessions as u64 {
        let mut w = stream;
        let _ = writeln!(
            w,
            "{}",
            GsimError::Config("session limit reached".into()).to_wire()
        );
        shared.active.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    shared.sessions_total.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_read_timeout(shared.cfg.idle_timeout);
    let registered = match stream.try_clone() {
        Ok(clone) => {
            if let Ok(mut reg) = shared.registry.lock() {
                reg.insert(id, clone);
            }
            true
        }
        Err(_) => false,
    };

    let scratch = shared.cfg.cache_dir.join("scratch").join(id.to_string());
    let _ = std::fs::create_dir_all(&scratch);

    // The protocol loop runs inside a `catch_unwind` boundary: a bug
    // (or an injected `panic_session_at_cmd`) in one session thread
    // must not take the process — and with it every other tenant —
    // down. The client is told with a typed `err backend` line on the
    // registry's writer clone; the pool slot is reclaimed below either
    // way.
    let panic_writer = stream.try_clone();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session_loop(shared, stream, &scratch)
    }));
    if result.is_err() {
        shared.panics.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut w) = panic_writer {
            let _ = writeln!(
                w,
                "{}",
                GsimError::Backend("session thread panicked".into()).to_wire()
            );
            let _ = w.flush();
        }
    }

    // Cleanup is unconditional: pool slot, roster entry, scratch dir.
    shared.active.fetch_sub(1, Ordering::SeqCst);
    if registered {
        if let Ok(mut reg) = shared.registry.lock() {
            reg.remove(&id);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = result;
}

/// The session loop's write half, with the `short_writes` fault
/// applied: one byte per `write` call, so chaos tests prove every
/// client reassembles arbitrarily fragmented wire lines.
struct SessionWriter {
    stream: Stream,
    short: bool,
}

impl std::io::Write for SessionWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.short && !buf.is_empty() {
            self.stream.write(&buf[..1])
        } else {
            self.stream.write(buf)
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

fn session_loop(
    shared: &Arc<Shared>,
    stream: Stream,
    scratch: &std::path::Path,
) -> std::io::Result<()> {
    let faults = shared.cfg.faults.clone();
    let mut writer = SessionWriter {
        stream: stream.try_clone()?,
        short: faults.short_writes,
    };
    let mut reader = BufReader::new(stream);
    let mut proto = SessionProto::new();
    let mut session: Option<Box<dyn Session>> = None;
    let mut cmds: u64 = 0;

    let mut buf = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match wire::read_line(&mut reader, &mut buf) {
            Ok(LineRead::Eof) => return Ok(()), // client hung up
            Ok(LineRead::Line) => {}
            Ok(LineRead::TooLong) => {
                proto.reject_line(&WireError::line_too_long(), &mut writer)?;
                continue;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let _ = writeln!(
                    writer,
                    "{}",
                    GsimError::Io("session idle timeout".into()).to_wire()
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let line = String::from_utf8_lossy(&buf);
        if line.is_empty() {
            continue;
        }
        cmds += 1;
        if faults.reset_session_at_cmd == Some(cmds) {
            // Injected connection reset: drop both stream halves
            // without a farewell, like a yanked network cable.
            return Ok(());
        }
        if faults.panic_session_at_cmd == Some(cmds) {
            panic!("injected fault: session panic at command {cmds}");
        }
        // The service's own verbs (second table in `gsim_sim::wire`)
        // each answer exactly one response; every other line belongs
        // to the session grammar.
        let mut it = line.split_whitespace();
        let verb = it.next().unwrap_or_default();
        let reply = match verb {
            "design" => match upload_size(verb, it.next()) {
                Ok(nbytes) => {
                    let src = read_upload(&mut reader, nbytes)?;
                    let src = String::from_utf8_lossy(&src);
                    let start = Instant::now();
                    open_design(shared, &src, it.next().unwrap_or("aot"), scratch).map(
                        |(sess, key, status)| {
                            session = Some(sess);
                            format!("ready {key} {status} {}", start.elapsed().as_millis())
                        },
                    )
                }
                Err(e) => Err(e),
            },
            "explore" => match (it.next().and_then(|v| v.parse().ok()), it.next()) {
                (Some(n), nbytes) => match upload_size(verb, nbytes) {
                    Ok(nbytes) => {
                        let payload = read_upload(&mut reader, nbytes)?;
                        match session.as_deref_mut() {
                            Some(sess) => run_explore(sess, &payload, n).map(|report| {
                                let branches = report.branches.iter();
                                let mut lines: String =
                                    branches.map(|b| b.render_wire() + "\n").collect();
                                lines.push_str(&format!("ok {}", sess.cycle()));
                                lines
                            }),
                            None => Err(GsimError::Protocol("no design loaded".into())),
                        }
                    }
                    Err(e) => Err(e),
                },
                (None, _) => Err(GsimError::Protocol("explore needs <n> <nbytes>".into())),
            },
            "stats" => Ok(shared.stats().render_wire()),
            "shutdown" => {
                let cycle = session.as_ref().map(|s| s.cycle()).unwrap_or(0);
                writeln!(writer, "ok {cycle}")?;
                writer.flush()?;
                shared.trigger_stop();
                return Ok(());
            }
            _ => {
                match session.as_deref_mut() {
                    Some(sess) => proto.handle_line(sess, &line, &mut writer)?,
                    // No design bound yet: queries answer immediately,
                    // mutating commands queue, `sync` fences — same shape
                    // as a bound session, so pipelined clients never hang.
                    None => match Command::parse(&line) {
                        Ok(Command::Sync) => proto.sync(0, &mut writer)?,
                        Ok(cmd) => proto.reject_line(
                            &WireError {
                                msg: "no design loaded".into(),
                                query: cmd.is_query(),
                            },
                            &mut writer,
                        )?,
                        Err(e) => proto.reject_line(&e, &mut writer)?,
                    },
                }
                continue;
            }
        };
        match reply {
            Ok(reply) => writeln!(writer, "{reply}")?,
            Err(e) => writeln!(writer, "{}", e.to_wire())?,
        }
        writer.flush()?;
    }
}

/// The announced size of a `design` / `explore` payload, checked
/// against [`wire::MAX_UPLOAD_BYTES`] before a byte of it is read.
fn upload_size(verb: &str, tok: Option<&str>) -> Result<usize, GsimError> {
    let nbytes = tok
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| GsimError::Protocol(format!("{verb} needs <nbytes>")))?;
    Ok(wire::check_upload(nbytes)?)
}

/// Reads an upload of exactly `nbytes`. The buffer grows with the
/// bytes that actually arrive, not with the size the peer announced.
fn read_upload(reader: &mut impl Read, nbytes: usize) -> std::io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    reader.take(nbytes as u64).read_to_end(&mut payload)?;
    if payload.len() < nbytes {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(payload)
}

/// Serves one `explore <n> <nbytes>` request: parses the uploaded
/// scenario text, forks the open session's current state
/// ([`Session::clone_at_snapshot`] — CoW in-process forks for
/// interp/jit, sibling processes from the same cached binary for
/// AoT), and runs `n` perturbed branches. The session is handed back
/// at its pre-explore state, so the tenant continues where it left
/// off.
fn run_explore(
    sess: &mut dyn Session,
    payload: &[u8],
    n: usize,
) -> Result<gsim_sim::ExploreReport, GsimError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| GsimError::Protocol("scenario payload is not UTF-8".into()))?;
    let sc = Scenario::parse(text)?;
    Explorer::new(sess)
        .options(ExploreOptions::default())
        .run(&sc, n, None)
}

/// Compiles FIRRTL source into a session: through the artifact cache
/// for the AoT backend (the child process runs in the per-session
/// scratch directory), in-process for the interpreter.
///
/// The AoT path is fault-tolerant on both axes: the session is
/// wrapped in a [`SupervisedSession`] whose factory recompiles
/// through the cache (so a dead child respawns even after its
/// artifact was evicted), and a failed compile degrades to the
/// in-process `jit` backend with status `"fallback"` instead of
/// refusing the design.
fn open_design(
    shared: &Arc<Shared>,
    src: &str,
    backend: &str,
    scratch: &std::path::Path,
) -> Result<(Box<dyn Session>, String, &'static str), GsimError> {
    let graph = gsim_firrtl::compile(src).map_err(GsimError::Parse)?;
    let (optimized, _) = gsim_passes::run(graph, &gsim_passes::PassOptions::all());
    match backend {
        "interp" => {
            let sim = Simulator::compile(&optimized, &SimOptions::default())?;
            // No artifact for the interpreter; key the design source
            // itself so logs still correlate sessions on one design.
            let key = ArtifactKey::fingerprint(src).to_string();
            Ok((Box::new(sim), key, "interp"))
        }
        "jit" => {
            // In-process threaded-code backend: AoT-class dispatch with
            // no rustc in the loop, so a cache-miss upload is served in
            // milliseconds. No artifact, same source fingerprint.
            let sim = Simulator::compile(&optimized, &SimOptions::threaded())?;
            let key = ArtifactKey::fingerprint(src).to_string();
            Ok((Box::new(sim), key, "jit"))
        }
        "aot" => {
            // The factory compiles *inside* the supervisor so a
            // respawn after artifact eviction transparently rebuilds;
            // it reports key/status out through `info` so the initial
            // spawn is not double-compiled just to learn them. Child
            // faults apply to the first spawn only: a respawned child
            // that re-inherited `kill_child_at_cycle` would die again
            // and again until the recovery budget ran out.
            let info: Arc<Mutex<Option<(String, bool)>>> = Arc::new(Mutex::new(None));
            let factory_info = Arc::clone(&info);
            let factory_shared = Arc::clone(shared);
            let factory_graph = optimized.clone();
            let factory_scratch = scratch.to_path_buf();
            let mut first_spawn = true;
            let factory: SessionFactory = Box::new(move || {
                let sim = factory_shared
                    .cache
                    .compile(&factory_graph, &AotOptions::default())?;
                if let Ok(mut slot) = factory_info.lock() {
                    *slot = Some((
                        ArtifactKey::fingerprint(&sim.emit.code).to_string(),
                        sim.from_cache,
                    ));
                }
                let plan = if first_spawn {
                    factory_shared.cfg.faults.clone()
                } else {
                    FaultPlan::default()
                };
                first_spawn = false;
                let sess = sim.session_with(Some(&factory_scratch), &plan)?;
                Ok(Box::new(sess) as Box<dyn Session>)
            });
            match SupervisedSession::new(factory, SuperviseOptions::default()) {
                Ok(sup) => {
                    let (key, from_cache) = info
                        .lock()
                        .ok()
                        .and_then(|slot| slot.clone())
                        .unwrap_or_else(|| (ArtifactKey::fingerprint(src).to_string(), false));
                    let status = if from_cache { "hit" } else { "miss" };
                    Ok((Box::new(sup), key, status))
                }
                Err(_) => {
                    // Graceful degradation: serve the design anyway on
                    // the in-process threaded-code backend and say so.
                    shared.fallbacks.fetch_add(1, Ordering::Relaxed);
                    let sim = Simulator::compile(&optimized, &SimOptions::threaded())?;
                    let key = ArtifactKey::fingerprint(src).to_string();
                    Ok((Box::new(sim), key, "fallback"))
                }
            }
        }
        other => Err(GsimError::Config(format!(
            "unknown backend {other:?} (expected aot, interp, or jit)"
        ))),
    }
}
