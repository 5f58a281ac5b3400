//! The backend-agnostic simulation session API.
//!
//! A [`Session`] is *one running simulation* of a compiled design,
//! independent of the execution substrate behind it: the in-process
//! interpreter engines ([`crate::Simulator`] implements the trait for
//! all five engine families) and the ahead-of-time compiled backend
//! (`gsim_codegen`'s persistent `AotSession`, which keeps one compiled
//! process resident and speaks the wire protocol below) expose exactly
//! the same surface, so testbenches, differential harnesses, and
//! benchmarks are written once against `&mut dyn Session` and run on
//! every backend.
//!
//! Every fallible operation returns the unified [`GsimError`] instead
//! of ad-hoc `String`s, so callers can match on failure classes
//! (unknown signal vs. backend loss) across backends.
//!
//! # Wire protocol
//!
//! Sessions that live in another process — the compiled simulator the
//! AoT backend emits (`--serve` mode) and the `gsim serve` service —
//! speak one line protocol, defined once (grammar, tables, limits) in
//! [`crate::wire`] and spoken client-side by [`crate::WireSession`].
//! The `err` classes on that wire map onto [`GsimError`] variants in
//! both directions through [`GsimError::to_wire`] and
//! [`GsimError::from_wire`].

use crate::counters::Counters;
use crate::scenario::Scenario;
use crate::CompileError;
use gsim_value::Value;

/// Unified error type for the whole simulation stack.
///
/// Replaces the `Result<_, String>` sprawl across the facade, the
/// interpreter, and the AoT backend: every backend maps its failures
/// onto these variants, so callers can distinguish "you asked for a
/// signal that does not exist" from "the backend process died" without
/// string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GsimError {
    /// The graph could not be compiled for simulation.
    Compile(CompileError),
    /// The FIRRTL front end rejected the source text.
    Parse(String),
    /// An invalid option combination (e.g. an engine choice the
    /// requested build path cannot honour).
    Config(String),
    /// No node with this name exists in the design.
    UnknownSignal(String),
    /// The named node exists but is not a top-level input.
    NotAnInput(String),
    /// No memory with this name exists in the design.
    UnknownMemory(String),
    /// A memory image larger than the memory it targets.
    MemImageTooLarge {
        /// The memory's name.
        name: String,
        /// The memory's depth in entries.
        depth: u64,
        /// The oversized image's length in entries.
        len: usize,
    },
    /// A [`SnapshotId`] that this session never issued (or that did
    /// not survive a backend restart).
    UnknownSnapshot(u64),
    /// An I/O failure on the transport layer: a socket or pipe to a
    /// backend process or simulation server was lost, timed out, or
    /// refused. (Carries the rendered `std::io::Error`, which is
    /// neither `Clone` nor `PartialEq`.)
    Io(String),
    /// Malformed wire traffic: a request or response that does not
    /// parse under the session protocol.
    Protocol(String),
    /// The execution backend failed: toolchain errors, a dead or
    /// unresponsive compiled-simulator process, or an internal error a
    /// server reported without a more specific class.
    Backend(String),
    /// A backend operation exceeded its deadline: the process or peer
    /// is still attached but stopped responding (stalled child, wedged
    /// socket). The session is poisoned — a supervisor should respawn
    /// and replay rather than retry on the same transport.
    Timeout(String),
    /// The backend process or connection behind this session is gone:
    /// the AoT child exited (crash, OOM-kill, `kill -9`) or the server
    /// dropped the connection. Carries what is known about the death
    /// (exit status, signal, or the transport error).
    SessionLost(String),
    /// The operation is not supported by this backend: a capability
    /// gap (e.g. [`Session::clone_at_snapshot`] on a backend that
    /// cannot fork), not a failure. Non-fatal — the session remains
    /// usable; callers fall back to a slower path.
    Unsupported(String),
}

impl std::fmt::Display for GsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GsimError::Compile(e) => write!(f, "{e}"),
            GsimError::Parse(m) => write!(f, "parse error: {m}"),
            GsimError::Config(m) => write!(f, "invalid configuration: {m}"),
            GsimError::UnknownSignal(n) => write!(f, "no signal named {n:?}"),
            GsimError::NotAnInput(n) => write!(f, "{n:?} is not an input"),
            GsimError::UnknownMemory(n) => write!(f, "no memory named {n:?}"),
            GsimError::MemImageTooLarge { name, depth, len } => write!(
                f,
                "image of {len} entries exceeds depth {depth} of memory {name:?}"
            ),
            GsimError::UnknownSnapshot(id) => write!(f, "no snapshot with id {id}"),
            GsimError::Io(m) => write!(f, "i/o failure: {m}"),
            GsimError::Protocol(m) => write!(f, "protocol violation: {m}"),
            GsimError::Backend(m) => write!(f, "backend failure: {m}"),
            GsimError::Timeout(m) => write!(f, "operation timed out: {m}"),
            GsimError::SessionLost(m) => write!(f, "session lost: {m}"),
            GsimError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
        }
    }
}

impl From<std::io::Error> for GsimError {
    fn from(e: std::io::Error) -> Self {
        GsimError::Io(e.to_string())
    }
}

impl GsimError {
    /// The machine-readable wire class of this error — the first token
    /// after `err` on the wire.
    pub fn wire_class(&self) -> &'static str {
        match self {
            GsimError::Compile(_) => "compile",
            GsimError::Parse(_) => "parse",
            GsimError::Config(_) => "config",
            GsimError::UnknownSignal(_) => "unknown-signal",
            GsimError::NotAnInput(_) => "unknown-input",
            GsimError::UnknownMemory(_) => "unknown-memory",
            GsimError::MemImageTooLarge { .. } => "mem-too-large",
            GsimError::UnknownSnapshot(_) => "unknown-snapshot",
            GsimError::Io(_) => "io",
            GsimError::Protocol(_) => "protocol",
            GsimError::Backend(_) => "backend",
            GsimError::Timeout(_) => "timeout",
            GsimError::SessionLost(_) => "session-lost",
            GsimError::Unsupported(_) => "unsupported",
        }
    }

    /// Renders this error as a protocol `err` line (without the
    /// trailing newline): `err <class> <payload...>`. The inverse of
    /// [`GsimError::from_wire`]. `gsim-server` encodes every error
    /// through it; the emitted binary's `--serve` loop prints the few
    /// classes it can raise literally, pinned equal by the transcript
    /// test in `tests/session_api.rs`.
    pub fn to_wire(&self) -> String {
        let payload = match self {
            GsimError::Compile(e) => e.to_string(),
            GsimError::MemImageTooLarge { name, depth, len } => format!("{name} {depth} {len}"),
            GsimError::UnknownSnapshot(id) => id.to_string(),
            GsimError::Parse(m)
            | GsimError::Config(m)
            | GsimError::UnknownSignal(m)
            | GsimError::NotAnInput(m)
            | GsimError::UnknownMemory(m)
            | GsimError::Io(m)
            | GsimError::Protocol(m)
            | GsimError::Backend(m)
            | GsimError::Timeout(m)
            | GsimError::SessionLost(m)
            | GsimError::Unsupported(m) => m.clone(),
        };
        format!("err {} {payload}", self.wire_class())
    }

    /// Decodes a protocol `err` line (with or without the leading
    /// `err ` token) back into the typed error. Unknown classes fall
    /// back to [`GsimError::Backend`] so a newer server never crashes
    /// an older client. Free-text payloads round-trip verbatim; the
    /// structured [`GsimError::Compile`] payload crosses the wire as
    /// its rendered message (re-wrapped as an invalid-graph compile
    /// error on decode).
    pub fn from_wire(line: &str) -> GsimError {
        let rest = line.strip_prefix("err ").unwrap_or(line);
        let (class, payload) = match rest.split_once(char::is_whitespace) {
            Some((c, p)) => (c, p.trim()),
            None => (rest.trim(), ""),
        };
        let mut it = payload.split_whitespace();
        let first = || payload.split_whitespace().next().unwrap_or("").to_string();
        match class {
            "compile" => GsimError::Compile(CompileError::InvalidGraph(payload.to_string())),
            "parse" => GsimError::Parse(payload.to_string()),
            "config" => GsimError::Config(payload.to_string()),
            "unknown-signal" => GsimError::UnknownSignal(first()),
            "unknown-input" => GsimError::NotAnInput(first()),
            "unknown-memory" => GsimError::UnknownMemory(first()),
            "mem-too-large" => GsimError::MemImageTooLarge {
                name: it.next().unwrap_or("").to_string(),
                depth: it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
                len: it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
            },
            "unknown-snapshot" => GsimError::UnknownSnapshot(first().parse().unwrap_or(0)),
            "io" => GsimError::Io(payload.to_string()),
            "protocol" => GsimError::Protocol(payload.to_string()),
            "backend" => GsimError::Backend(payload.to_string()),
            "timeout" => GsimError::Timeout(payload.to_string()),
            "session-lost" => GsimError::SessionLost(payload.to_string()),
            "unsupported" => GsimError::Unsupported(payload.to_string()),
            _ => GsimError::Backend(format!("server error: {rest}")),
        }
    }

    /// `true` for errors meaning the transport or backend itself is
    /// lost (as opposed to a bad request): [`GsimError::Io`],
    /// [`GsimError::Backend`], [`GsimError::Timeout`], and
    /// [`GsimError::SessionLost`]. Pipelining drivers abort on these
    /// and keep going on everything else; supervisors treat them as
    /// the trigger for respawn-and-replay recovery.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            GsimError::Io(_)
                | GsimError::Backend(_)
                | GsimError::Timeout(_)
                | GsimError::SessionLost(_)
        )
    }
}

impl std::error::Error for GsimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GsimError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompileError> for GsimError {
    fn from(e: CompileError) -> Self {
        GsimError::Compile(e)
    }
}

/// Handle to a saved simulation state, returned by
/// [`Session::snapshot`] and consumed by [`Session::restore`].
///
/// Ids are only meaningful on the session that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotId(u64);

impl SnapshotId {
    /// Wraps a backend-assigned raw id (for `Session` implementors).
    pub fn from_raw(raw: u64) -> SnapshotId {
        SnapshotId(raw)
    }

    /// The backend-assigned raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Name + width metadata for one signal, as reported by
/// [`Session::inputs`] and [`Session::signals`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalInfo {
    /// The signal's design-level name (the string `poke`/`peek` take).
    pub name: String,
    /// Declared width in bits.
    pub width: u32,
}

/// Name + shape metadata for one memory, as reported by
/// [`Session::memories`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryInfo {
    /// The memory's name (the string `load_mem` takes).
    pub name: String,
    /// Depth in entries.
    pub depth: u64,
    /// Entry width in bits.
    pub width: u32,
}

/// One running simulation, independent of the execution backend.
///
/// The trait is object-safe: harnesses hold `Box<dyn Session>` (or
/// `&mut dyn Session`) and drive the interpreter engines and the
/// persistent AoT process identically. All implementations are
/// bit-identical in observable behaviour — pinned by the differential
/// matrix in `tests/`, which runs every backend against the reference
/// interpreter cycle by cycle through this trait.
pub trait Session {
    /// A short human-readable backend tag (e.g. `"interp/essential"`,
    /// `"aot"`), for labels in harness assertions and reports.
    fn backend(&self) -> &'static str;

    /// Completed simulation cycles.
    fn cycle(&self) -> u64;

    /// Drives a top-level input. The value is zero-extended or
    /// truncated to the input's declared width.
    ///
    /// # Errors
    ///
    /// [`GsimError::UnknownSignal`] / [`GsimError::NotAnInput`] for bad
    /// names; [`GsimError::Backend`] if the backend is lost.
    fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError>;

    /// Reads a named signal's current value (typed, exact width — not
    /// a hex string).
    ///
    /// # Errors
    ///
    /// [`GsimError::UnknownSignal`] for bad names;
    /// [`GsimError::Backend`] if the backend is lost.
    fn peek(&mut self, name: &str) -> Result<Value, GsimError>;

    /// Loads a memory image (entry `i` at address `i`, one `u64` per
    /// entry) before or between runs.
    ///
    /// # Errors
    ///
    /// [`GsimError::UnknownMemory`] / [`GsimError::MemImageTooLarge`]
    /// for bad images; [`GsimError::Backend`] if the backend is lost.
    fn load_mem(&mut self, name: &str, image: &[u64]) -> Result<(), GsimError>;

    /// Advances `n` clock cycles with the inputs held at their current
    /// values.
    ///
    /// # Errors
    ///
    /// [`GsimError::Backend`] if the backend is lost.
    fn step(&mut self, n: u64) -> Result<(), GsimError>;

    /// Applies a [`Scenario`] to this session: memory loads first,
    /// then one cycle per frame, each frame's pokes driven before its
    /// cycle. The session is left at `cycle() + scenario.cycles()`.
    /// This is the one batched stepping call, shared by the CLI, the
    /// bench harness, the exploration engine, and the wire.
    ///
    /// The default implementation is a portable poke-per-cycle loop.
    /// Backends with a cheaper batched path override it: the
    /// interpreter's multithreaded engines keep their worker team
    /// alive across the whole scenario, the wire session pipelines it
    /// into the peer with a bounded number of round trips, and the
    /// supervisor journals it for crash recovery.
    ///
    /// # Errors
    ///
    /// Load errors ([`GsimError::UnknownMemory`] /
    /// [`GsimError::MemImageTooLarge`]) abort before any cycle runs.
    /// Poke errors ([`GsimError::UnknownSignal`] /
    /// [`GsimError::NotAnInput`], the classes [`Session::poke`]
    /// reports) do not cut the run short: every frame's cycle still
    /// runs, stimulus stops being driven at the first bad poke
    /// (in process) or shortly after it (on the wire: within the
    /// pipelined chunk already in flight), and the first error is
    /// returned at the end. Fatal errors ([`GsimError::is_fatal`])
    /// abort at once — the backend itself is lost.
    fn run_scenario(&mut self, scenario: &Scenario) -> Result<(), GsimError> {
        for (mem, image) in &scenario.loads {
            self.load_mem(mem, image)?;
        }
        let mut first_err: Option<GsimError> = None;
        for frame in &scenario.frames {
            if first_err.is_none() {
                for (name, v) in frame {
                    match self.poke(name, Value::from_u64(*v, 64)) {
                        Ok(()) => {}
                        Err(e) if e.is_fatal() => return Err(e),
                        Err(e) => {
                            first_err = Some(e);
                            break;
                        }
                    }
                }
            }
            self.step(1)?;
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Forks this session: returns a *new* session of the same
    /// compiled design whose simulation state (signals, registers,
    /// memories, cycle count, counters) equals this session's state
    /// at the time of the call, and which then evolves independently.
    /// This is the primitive behind [`crate::Explorer`]'s
    /// snapshot-fork scenario fan-out.
    ///
    /// The default implementation cannot fork (constructing a fresh
    /// backend instance needs a factory the trait does not carry) and
    /// returns [`GsimError::Unsupported`]; in-process backends
    /// override it with a cheap copy-on-write clone, and process
    /// backends override it by spawning a sibling process and
    /// importing an [`Session::export_state`] blob.
    ///
    /// # Errors
    ///
    /// [`GsimError::Unsupported`] when this backend cannot fork
    /// (callers fall back to opening a session via their own factory
    /// and replaying); transport-class errors when a process backend
    /// fails mid-fork.
    fn clone_at_snapshot(&mut self) -> Result<Box<dyn Session + Send>, GsimError> {
        Err(GsimError::Unsupported(format!(
            "backend {:?} cannot fork a running session",
            self.backend()
        )))
    }

    /// The semantic cost counters accumulated so far. Backends without
    /// a given counter report it as zero; `cycles`, `node_evals`,
    /// `supernode_evals`, and `value_changes` are maintained by every
    /// backend.
    ///
    /// # Errors
    ///
    /// [`GsimError::Backend`] if the backend is lost.
    fn counters(&mut self) -> Result<Counters, GsimError>;

    /// Saves the complete simulation state (signals, registers,
    /// memories, activation set, cycle count, counters) and returns a
    /// handle for [`Session::restore`].
    ///
    /// # Errors
    ///
    /// [`GsimError::Backend`] if the backend is lost.
    fn snapshot(&mut self) -> Result<SnapshotId, GsimError>;

    /// Rolls the simulation back to a state saved by
    /// [`Session::snapshot`]. Replay after a restore is bit-identical
    /// to the original run under the same stimulus.
    ///
    /// # Errors
    ///
    /// [`GsimError::UnknownSnapshot`] for ids this session never
    /// issued; [`GsimError::Backend`] if the backend is lost.
    fn restore(&mut self, id: SnapshotId) -> Result<(), GsimError>;

    /// The design's top-level inputs (declaration order): the names
    /// [`Session::poke`] accepts. Identical across backends for the
    /// same design, so clients need no out-of-band knowledge.
    ///
    /// # Errors
    ///
    /// [`GsimError::Backend`] / [`GsimError::Io`] if the backend is
    /// lost (remote backends answer this over the wire).
    fn inputs(&mut self) -> Result<Vec<SignalInfo>, GsimError>;

    /// Every name [`Session::peek`] is guaranteed to resolve on *all*
    /// backends: named outputs, then named inputs, deduplicated.
    /// (In-process backends may resolve additional internal names;
    /// this list is the portable surface.)
    ///
    /// # Errors
    ///
    /// As [`Session::inputs`].
    fn signals(&mut self) -> Result<Vec<SignalInfo>, GsimError>;

    /// The design's memories (declaration order): the names
    /// [`Session::load_mem`] accepts, with their shapes.
    ///
    /// # Errors
    ///
    /// As [`Session::inputs`].
    fn memories(&mut self) -> Result<Vec<MemoryInfo>, GsimError>;

    /// Exports the complete simulation state as an opaque,
    /// self-contained blob — the crash-recovery primitive behind
    /// [`crate::SupervisedSession`]. Unlike [`Session::snapshot`]
    /// (whose id lives and dies with the backend instance), the blob
    /// survives the session: feeding it to [`Session::import_state`]
    /// on a *fresh* session of the same design reproduces this
    /// simulation bit for bit, including cycle count and counters.
    ///
    /// The blob is guaranteed to be a single ASCII token (no
    /// whitespace or newlines), so it can travel on the line-oriented
    /// wire protocols verbatim.
    ///
    /// Returns `Ok(None)` on backends that do not support state
    /// externalization (the default); such sessions can still be
    /// supervised, but recovery replays the journal from cycle 0.
    ///
    /// # Errors
    ///
    /// [`GsimError::Backend`] / [`GsimError::SessionLost`] if the
    /// backend is lost.
    fn export_state(&mut self) -> Result<Option<Vec<u8>>, GsimError> {
        Ok(None)
    }

    /// Overwrites the complete simulation state from a blob produced
    /// by [`Session::export_state`] on any session of the same
    /// compiled design.
    ///
    /// # Errors
    ///
    /// [`GsimError::Config`] on backends without state support (the
    /// default); [`GsimError::Protocol`] for a blob that does not
    /// match this design; [`GsimError::Backend`] /
    /// [`GsimError::SessionLost`] if the backend is lost.
    fn import_state(&mut self, state: &[u8]) -> Result<(), GsimError> {
        let _ = state;
        Err(GsimError::Config(
            "this backend does not support state import".into(),
        ))
    }

    /// Starts change-driven waveform capture into `sink`: the sink
    /// receives a header and a baseline snapshot at the current
    /// cycle, then one change record per traced signal per cycle in
    /// which its value changed, stamped with the cycle *after* which
    /// the new value is observable (the same value [`Session::peek`]
    /// would read at that point). `signals` selects a subset of
    /// [`Session::signals`] to trace; `None` traces all of them.
    /// Capture runs until [`Session::trace_stop`] and is
    /// change-driven and backend-agnostic, so two peek-equivalent
    /// backends produce canonically identical waves (`gsim wavediff`
    /// pins exactly this).
    ///
    /// At most one trace can be active per session. Sink write
    /// failures do not fail the simulation; they are latched and
    /// reported by [`Session::trace_stop`].
    ///
    /// # Errors
    ///
    /// [`GsimError::UnknownSignal`] for a subset name that is not in
    /// [`Session::signals`]; [`GsimError::Config`] if a trace is
    /// already active; [`GsimError::Unsupported`] on backends without
    /// capture (the default — callers fall back to peek-based
    /// observation); transport-class errors on process backends.
    fn trace_start(
        &mut self,
        signals: Option<&[String]>,
        sink: Box<dyn gsim_wave::WaveSink>,
    ) -> Result<(), GsimError> {
        let _ = (signals, sink);
        Err(GsimError::Unsupported(format!(
            "backend {:?} cannot capture waveforms",
            self.backend()
        )))
    }

    /// Stops waveform capture and finishes the sink (flushing file
    /// sinks), surfacing the first sink error latched during capture.
    ///
    /// # Errors
    ///
    /// [`GsimError::Config`] if no trace is active; [`GsimError::Io`]
    /// for a latched or final sink failure; [`GsimError::Unsupported`]
    /// on backends without capture (the default).
    fn trace_stop(&mut self) -> Result<(), GsimError> {
        Err(GsimError::Unsupported(format!(
            "backend {:?} cannot capture waveforms",
            self.backend()
        )))
    }

    /// [`Session::poke`] from a `u64`.
    ///
    /// # Errors
    ///
    /// As [`Session::poke`].
    fn poke_u64(&mut self, name: &str, v: u64) -> Result<(), GsimError> {
        self.poke(name, Value::from_u64(v, 64))
    }

    /// [`Session::peek`] as a `u64` (`None` if the value is wider).
    ///
    /// # Errors
    ///
    /// As [`Session::peek`].
    fn peek_u64(&mut self, name: &str) -> Result<Option<u64>, GsimError> {
        Ok(self.peek(name)?.to_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::GsimError;
    use crate::CompileError;

    /// One representative of every variant — the full taxonomy.
    fn taxonomy() -> Vec<GsimError> {
        vec![
            GsimError::Compile(CompileError::InvalidGraph("bad graph".into())),
            GsimError::Parse("expected circuit".into()),
            GsimError::Config("engine mismatch".into()),
            GsimError::UnknownSignal("foo".into()),
            GsimError::NotAnInput("out".into()),
            GsimError::UnknownMemory("ram".into()),
            GsimError::MemImageTooLarge {
                name: "ram".into(),
                depth: 16,
                len: 32,
            },
            GsimError::UnknownSnapshot(7),
            GsimError::Io("broken pipe".into()),
            GsimError::Protocol("bad token".into()),
            GsimError::Backend("rustc exploded".into()),
            GsimError::Timeout("sync exceeded 250ms".into()),
            GsimError::SessionLost("child exited: signal 9".into()),
            GsimError::Unsupported("this backend cannot fork".into()),
        ]
    }

    #[test]
    fn wire_round_trip_covers_every_variant() {
        for err in taxonomy() {
            let line = err.to_wire();
            assert!(line.starts_with("err "), "wire line {line:?}");
            let back = GsimError::from_wire(&line);
            // `Compile` crosses the wire as its rendered message and
            // comes back re-wrapped; everything else is exact.
            match (&err, &back) {
                (GsimError::Compile(_), GsimError::Compile(_)) => {}
                _ => assert_eq!(err, back, "round trip of {line:?}"),
            }
            assert_eq!(err.wire_class(), back.wire_class());
            assert_eq!(err.is_fatal(), back.is_fatal());
            // Decoding also works without the `err ` prefix.
            let stripped = GsimError::from_wire(line.strip_prefix("err ").unwrap());
            assert_eq!(back.wire_class(), stripped.wire_class());
        }
    }

    #[test]
    fn fatality_classification() {
        for err in taxonomy() {
            let fatal = matches!(
                err,
                GsimError::Io(_)
                    | GsimError::Backend(_)
                    | GsimError::Timeout(_)
                    | GsimError::SessionLost(_)
            );
            assert_eq!(err.is_fatal(), fatal, "{err}");
        }
    }

    #[test]
    fn unknown_wire_class_degrades_to_backend() {
        let e = GsimError::from_wire("err quantum-flux something odd");
        assert!(matches!(e, GsimError::Backend(_)));
        assert!(e.is_fatal());
    }

    #[test]
    fn wire_classes_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for err in taxonomy() {
            assert!(
                seen.insert(err.wire_class()),
                "duplicate {}",
                err.wire_class()
            );
        }
    }
}
