//! The one client of the session wire protocol ([`crate::wire`]).
//!
//! [`WireSession`] speaks the protocol over any [`Transport`] — the
//! AoT backend's child-process pipe, the service client's socket — and
//! every type that owns one ([`WireClient`]) is a [`Session`] through
//! the single impl at the bottom of this file. Mutating commands are
//! pipelined and fenced with `sync`; queries are one round trip each.

use crate::counters::Counters;
use crate::scenario::Scenario;
use crate::session::{GsimError, MemoryInfo, Session, SignalInfo, SnapshotId};
use crate::wire::{check_upload, Command, Reply, WireError};
use gsim_value::Value;
use gsim_wave::{ChgRouter, WaveSignal, WaveSink};
use std::fmt::Write as _;

/// How many pipelined cycles a scenario run lets accumulate before
/// fencing with a `sync`: bounds the unread `err` lines a misbehaving
/// stimulus could queue in the peer's output pipe (well under the
/// kernel pipe capacity) while keeping the per-cycle wire cost at
/// roughly one write.
const SYNC_CHUNK: u64 = 128;

impl From<WireError> for GsimError {
    fn from(e: WireError) -> Self {
        GsimError::Protocol(e.msg)
    }
}

/// A byte stream to one protocol server. Everything that can go wrong
/// with the peer itself — deadlines, liveness, classifying a dead
/// child — lives behind this trait; [`WireSession`] only sees lines.
pub trait Transport: Send + 'static {
    /// The tag [`Session::backend`] reports.
    const BACKEND: &'static str;

    /// Writes `bytes` (whole lines, or an upload payload) to the peer.
    ///
    /// # Errors
    ///
    /// A transport-class [`GsimError`].
    fn send(&mut self, bytes: &[u8]) -> Result<(), GsimError>;

    /// Pushes everything sent so far to the peer.
    ///
    /// # Errors
    ///
    /// A transport-class [`GsimError`].
    fn flush(&mut self) -> Result<(), GsimError>;

    /// Blocks for the next line from the peer, terminator stripped.
    ///
    /// # Errors
    ///
    /// A transport-class [`GsimError`] (peer gone, deadline exceeded).
    fn recv(&mut self) -> Result<String, GsimError>;

    /// A cheap liveness probe, run before every fence and query.
    ///
    /// # Errors
    ///
    /// [`GsimError::SessionLost`] when the peer is known to be gone.
    fn check_alive(&mut self) -> Result<(), GsimError> {
        Ok(())
    }

    /// Opens a second, independent connection to a fresh instance of
    /// the same server (the AoT backend spawns a sibling process).
    ///
    /// # Errors
    ///
    /// [`GsimError::Unsupported`] (the default) when the transport
    /// cannot.
    fn fork(&mut self) -> Result<Self, GsimError>
    where
        Self: Sized,
    {
        Err(GsimError::Unsupported(format!(
            "backend {:?} cannot fork a running session",
            Self::BACKEND
        )))
    }
}

/// Protocol client state over a [`Transport`]: the local cycle mirror,
/// the pipelining fence, and the trace subscription's router.
///
/// Every public method leaves the stream *fenced* — no response
/// outstanding — which is what lets queries be a single round trip.
#[derive(Debug)]
pub struct WireSession<T: Transport> {
    transport: T,
    /// Authoritative only at fences.
    cycle: u64,
    /// Cycles stepped since the last `sync`.
    unsynced: u64,
    /// Reassembles unsolicited `chg` records into the caller's sink
    /// while a trace subscription is active.
    router: Option<ChgRouter>,
    /// Reused request buffer: one `send` per line.
    out: String,
}

impl<T: Transport> WireSession<T> {
    /// A session at cycle 0 over `transport`.
    pub fn new(transport: T) -> WireSession<T> {
        WireSession {
            transport,
            cycle: 0,
            unsynced: 0,
            router: None,
            out: String::new(),
        }
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The underlying transport, mutably.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Resets the local cycle mirror (the service client does after
    /// binding a new design).
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    fn send_line(&mut self, line: impl std::fmt::Display) -> Result<(), GsimError> {
        self.out.clear();
        let _ = writeln!(self.out, "{line}");
        self.transport.send(self.out.as_bytes())
    }

    /// Reads the next *response* line: unsolicited `chg` trace records
    /// are routed into the active wave subscription (or dropped when
    /// none is active — the server only streams after `trace on`) so
    /// protocol readers see exactly the line counts the grammar
    /// promises.
    ///
    /// # Errors
    ///
    /// Transport-class errors.
    pub fn next_line(&mut self) -> Result<String, GsimError> {
        loop {
            let line = self.transport.recv().map_err(|e| match e {
                GsimError::Timeout(m) => GsimError::Timeout(format!("{m} (cycle {})", self.cycle)),
                e => e,
            })?;
            if line.starts_with("chg ") {
                if let Some(router) = self.router.as_mut() {
                    router.feed(&line);
                }
                continue;
            }
            return Ok(line);
        }
    }

    /// [`WireSession::next_line`], with an `err` line decoded into its
    /// typed error.
    ///
    /// # Errors
    ///
    /// The server's typed error, or a transport-class one.
    pub fn response(&mut self) -> Result<String, GsimError> {
        let line = self.next_line()?;
        match line.strip_prefix("err ") {
            Some(e) => Err(GsimError::from_wire(e)),
            None => Ok(line),
        }
    }

    /// One round trip on a fenced stream: the `request` line, the raw
    /// `payload` bytes a service upload carries after it (empty
    /// otherwise), then the first response line.
    ///
    /// # Errors
    ///
    /// As [`WireSession::response`]; [`GsimError::Protocol`] for a
    /// payload over [`crate::wire::MAX_UPLOAD_BYTES`].
    pub fn request(
        &mut self,
        request: impl std::fmt::Display,
        payload: &[u8],
    ) -> Result<String, GsimError> {
        // An upload the server would refuse is refused here, before a
        // byte is sent, so the stream cannot desynchronize.
        check_upload(payload.len())?;
        self.transport.check_alive()?;
        self.send_line(request)?;
        self.transport.send(payload)?;
        self.transport.flush()?;
        self.response()
    }

    /// Fences the pipeline: sends `sync`, then drains queued `err`
    /// lines (in command order) until the matching `ok`, whose cycle
    /// count resynchronizes the local mirror (it moves under `restore`
    /// and `loadstate`). Returns the first queued error if any.
    fn sync(&mut self) -> Result<(), GsimError> {
        self.transport.check_alive()?;
        self.send_line(Command::Sync)?;
        self.transport.flush()?;
        self.unsynced = 0;
        let mut first_err = None;
        loop {
            let line = self.next_line()?;
            match Reply::parse(&line) {
                Ok(Reply::Ok(cycle)) => {
                    self.cycle = cycle;
                    return first_err.map_or(Ok(()), Err);
                }
                Ok(Reply::Err(e)) if first_err.is_none() => {
                    first_err = Some(GsimError::from_wire(e));
                }
                _ => {}
            }
        }
    }

    /// A mutating command and its fence.
    fn apply(&mut self, cmd: Command<'_>) -> Result<(), GsimError> {
        self.send_line(cmd)?;
        self.sync()
    }

    /// The query `cmd`, answered as the reply shape `pick` expects.
    /// `list` answers three lines; `nth` says which one is wanted
    /// (0 for every other query).
    fn query<R>(
        &mut self,
        cmd: Command<'_>,
        nth: usize,
        pick: impl FnOnce(Reply<'_>) -> Option<R>,
    ) -> Result<R, GsimError> {
        let more = if matches!(cmd, Command::List) { 2 } else { 0 };
        let mut line = self.request(cmd, &[])?;
        for at in 1..=more {
            let next = self.response()?;
            if at == nth {
                line = next;
            }
        }
        pick(Reply::parse(&line)?)
            .ok_or_else(|| GsimError::Protocol(format!("unexpected response: {line}")))
    }
}

fn signal_infos(v: Vec<(&str, u32)>) -> Vec<SignalInfo> {
    v.into_iter()
        .map(|(name, width)| SignalInfo {
            name: name.to_string(),
            width,
        })
        .collect()
}

/// A type that owns a [`WireSession`] — `gsim_codegen`'s `AotSession`,
/// `gsim_server`'s `ClientSession`, and `WireSession` itself. It is a
/// [`Session`] through the one impl below.
pub trait WireClient {
    /// The transport under the session.
    type Transport: Transport;

    /// The owned protocol client.
    fn wire(&self) -> &WireSession<Self::Transport>;

    /// The owned protocol client, mutably.
    fn wire_mut(&mut self) -> &mut WireSession<Self::Transport>;
}

impl<T: Transport> WireClient for WireSession<T> {
    type Transport = T;

    fn wire(&self) -> &WireSession<T> {
        self
    }

    fn wire_mut(&mut self) -> &mut WireSession<T> {
        self
    }
}

impl<C: WireClient> Session for C {
    fn backend(&self) -> &'static str {
        C::Transport::BACKEND
    }

    fn cycle(&self) -> u64 {
        self.wire().cycle
    }

    fn poke(&mut self, name: &str, v: Value) -> Result<(), GsimError> {
        let hex = format!("{v:x}");
        self.wire_mut().apply(Command::Poke { name, hex: &hex })
    }

    fn peek(&mut self, name: &str) -> Result<Value, GsimError> {
        self.wire_mut().query(Command::Peek(name), 0, |r| match r {
            Reply::Val { width, hex } => Value::from_str_radix(hex, 16, width).ok(),
            _ => None,
        })
    }

    fn load_mem(&mut self, name: &str, image: &[u64]) -> Result<(), GsimError> {
        self.wire_mut().apply(Command::Load {
            mem: name,
            image: image.to_vec(),
        })
    }

    fn step(&mut self, n: u64) -> Result<(), GsimError> {
        self.wire_mut().apply(Command::Step(n))
    }

    fn run_scenario(&mut self, scenario: &Scenario) -> Result<(), GsimError> {
        for (mem, image) in &scenario.loads {
            self.load_mem(mem, image)?;
        }
        let w = self.wire_mut();
        let mut hex = String::new();
        // Stimulus errors do not cut the run short: as on the
        // interpreter backend, the session still runs every frame's
        // cycle, stimulus stops being driven, and the first error is
        // reported at the end. (Within the chunk already in flight
        // when the fence surfaces the error, later frames' valid
        // pokes were applied — the pipelining trade-off the trait
        // documents.) Only transport failures abort.
        let mut first_err: Option<GsimError> = None;
        let last = scenario.frames.len();
        for (k, frame) in scenario.frames.iter().enumerate() {
            if first_err.is_none() {
                for (name, v) in frame {
                    hex.clear();
                    let _ = write!(hex, "{v:x}");
                    w.send_line(Command::Poke { name, hex: &hex })?;
                }
            }
            w.send_line(Command::Step(1))?;
            w.unsynced += 1;
            if w.unsynced >= SYNC_CHUNK || k + 1 == last {
                if let Err(e) = w.sync() {
                    if e.is_fatal() {
                        return Err(e);
                    }
                    first_err.get_or_insert(e);
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn clone_at_snapshot(&mut self) -> Result<Box<dyn Session + Send>, GsimError> {
        // One state export plus whatever the transport's fork costs
        // (for the AoT backend: one process spawn from the same cached
        // binary — `rustc` never runs again).
        let blob = self.export_state()?.ok_or_else(|| {
            GsimError::Unsupported(format!(
                "backend {:?} does not export state",
                self.backend()
            ))
        })?;
        let mut fork = WireSession::new(self.wire_mut().transport.fork()?);
        fork.import_state(&blob)?;
        Ok(Box::new(fork))
    }

    fn counters(&mut self) -> Result<Counters, GsimError> {
        self.wire_mut().query(Command::Counters, 0, |r| match r {
            Reply::Counters([cycles, supernode_evals, node_evals, value_changes]) => {
                Some(Counters {
                    cycles,
                    supernode_evals,
                    node_evals,
                    value_changes,
                    ..Counters::default()
                })
            }
            _ => None,
        })
    }

    fn snapshot(&mut self) -> Result<SnapshotId, GsimError> {
        self.wire_mut().query(Command::Snapshot, 0, |r| match r {
            Reply::Snap(id) => Some(SnapshotId::from_raw(id)),
            _ => None,
        })
    }

    fn restore(&mut self, id: SnapshotId) -> Result<(), GsimError> {
        self.wire_mut().apply(Command::Restore(id.raw()))
    }

    fn inputs(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
        self.wire_mut().query(Command::List, 0, |r| match r {
            Reply::Inputs(v) => Some(signal_infos(v)),
            _ => None,
        })
    }

    fn signals(&mut self) -> Result<Vec<SignalInfo>, GsimError> {
        self.wire_mut().query(Command::List, 1, |r| match r {
            Reply::Signals(v) => Some(signal_infos(v)),
            _ => None,
        })
    }

    fn memories(&mut self) -> Result<Vec<MemoryInfo>, GsimError> {
        self.wire_mut().query(Command::List, 2, |r| match r {
            Reply::Mems(v) => Some(
                v.into_iter()
                    .map(|(name, depth, width)| MemoryInfo {
                        name: name.to_string(),
                        depth,
                        width,
                    })
                    .collect(),
            ),
            _ => None,
        })
    }

    fn export_state(&mut self) -> Result<Option<Vec<u8>>, GsimError> {
        let blob = self.wire_mut().query(Command::State, 0, |r| match r {
            Reply::State { blob, .. } => Some(blob.as_bytes().to_vec()),
            _ => None,
        });
        match blob {
            // A server over a non-exporting backend says so with a
            // `config` error; the trait contract for that is `None`.
            Err(GsimError::Config(_)) => Ok(None),
            blob => blob.map(Some),
        }
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), GsimError> {
        let blob = std::str::from_utf8(state)
            .map_err(|_| GsimError::Protocol("state blob is not ASCII".into()))?;
        // The fence surfaces a rejected blob and resynchronizes
        // `cycle()` with the imported state.
        self.wire_mut().apply(Command::LoadState(blob))
    }

    fn trace_start(
        &mut self,
        signals: Option<&[String]>,
        sink: Box<dyn WaveSink>,
    ) -> Result<(), GsimError> {
        if self.wire().router.is_some() {
            return Err(GsimError::Config(
                "a trace is already active on this session".into(),
            ));
        }
        // Resolve the traced subset client-side so a typo is a typed
        // error before any wire traffic, mirroring the in-process
        // backends. The server re-validates, but its `err` would only
        // surface at the next fence.
        let all = self.signals()?;
        let selected: Vec<SignalInfo> = match signals {
            None => all,
            Some(names) => names
                .iter()
                .map(|n| {
                    all.iter()
                        .find(|s| &s.name == n)
                        .cloned()
                        .ok_or_else(|| GsimError::UnknownSignal(n.clone()))
                })
                .collect::<Result<_, _>>()?,
        };
        // The router mirrors the server's zero-width exclusion so the
        // baseline completes.
        let wave_sigs = selected
            .iter()
            .filter(|s| s.width > 0)
            .map(|s| WaveSignal::new(&s.name, s.width))
            .collect();
        let w = self.wire_mut();
        w.router = Some(ChgRouter::new("top", wave_sigs, sink));
        // The fence pulls the baseline burst through `next_line` into
        // the router before returning.
        let names = selected.iter().map(|s| s.name.as_str()).collect();
        let res = w.apply(Command::TraceOn(names));
        if res.is_err() {
            w.router = None;
        }
        res
    }

    fn trace_stop(&mut self) -> Result<(), GsimError> {
        let w = self.wire_mut();
        if w.router.is_none() {
            return Err(GsimError::Config(
                "no trace is active on this session".into(),
            ));
        }
        // `trace off` is silent on success; the fence both confirms it
        // and pulls every record still queued in the pipe through
        // `next_line` into the router before we tear it down.
        let res = w.apply(Command::TraceOff);
        let router = w.router.take().expect("checked above");
        res?;
        router.finish().map_err(|e| GsimError::Io(e.to_string()))
    }
}
