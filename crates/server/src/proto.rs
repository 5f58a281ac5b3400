//! The wire ↔ [`Session`] bridge: one implementation of the line
//! protocol's server side over any `Box<dyn Session>`, so the service
//! serves the AoT backend (a persistent compiled process) and the
//! interpreter engines through the same loop. It dispatches on the
//! same [`gsim_sim::wire::Command`] the emitted binary's `--serve`
//! loop does; `tests/session_api.rs` holds the two loops' reply
//! streams byte-identical.
//!
//! Semantics (documented in full in [`gsim_sim::wire`]): mutating
//! commands (`poke`, `load`, `step`, `restore`, `loadstate`, `trace`)
//! are silent on success and *queue* their errors; `sync` drains the
//! queue (in command order) and answers `ok <cycle>`; queries
//! (`peek`, `counters`, `snapshot`, `state`, `list`) answer exactly
//! one request each — `list` with its fixed three lines.
//!
//! Tracing: `trace on [<signal>…]` subscribes the connection to
//! value-change records. The bridge installs a
//! [`gsim_wave::LineSink`] over a [`gsim_wave::SharedBuf`] via
//! [`Session::trace_start`]; the session (any backend) feeds it, and
//! the bridge drains the buffered `chg <cycle> <name> <hex>` lines
//! onto the wire after every state-moving command — so, exactly as in
//! the emitted binary's `--serve` loop, unsolicited records always
//! precede the next command response that could observe the
//! post-change state.

use gsim_sim::wire::{self, Command, Reply, WireError};
use gsim_sim::{GsimError, Session, SnapshotId};
use gsim_value::Value;
use gsim_wave::{LineSink, SharedBuf};
use std::io::Write;

/// Per-connection protocol state: the queued-error buffer that gives
/// mutating commands their pipelined, silent-on-success semantics,
/// plus the active trace subscription's staging buffer.
#[derive(Debug, Default)]
pub struct SessionProto {
    queued: Vec<String>,
    /// `Some` while a `trace on` subscription is active: the shared
    /// buffer the session's [`gsim_wave::LineSink`] writes `chg`
    /// records into, drained onto the wire between commands.
    trace_buf: Option<SharedBuf>,
}

impl SessionProto {
    /// Fresh per-connection state.
    pub fn new() -> SessionProto {
        SessionProto::default()
    }

    /// Holds a mutating command's error for the next `sync` fence.
    fn queue(&mut self, r: Result<(), GsimError>) {
        if let Err(e) = r {
            self.queued.push(e.to_wire());
        }
    }

    /// Drains any `chg` records the active trace sink staged since
    /// the last drain onto the wire, keeping the protocol's ordering
    /// guarantee: records precede the next response that could
    /// observe the post-change state.
    fn drain_trace(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        if let Some(buf) = &self.trace_buf {
            if !buf.is_empty() {
                out.write_all(&buf.drain())?;
                out.flush()?;
            }
        }
        Ok(())
    }

    /// Answers `sync`: queued errors in command order, then
    /// `ok <cycle>`.
    pub fn sync(&mut self, cycle: u64, out: &mut impl Write) -> std::io::Result<()> {
        self.drain_trace(out)?;
        for line in self.queued.drain(..) {
            writeln!(out, "{line}")?;
        }
        writeln!(out, "ok {cycle}")?;
        out.flush()
    }

    /// Answers a line that did not parse: immediately when the peer
    /// is owed a response line, else at the next `sync`.
    ///
    /// # Errors
    ///
    /// The transport's write error.
    pub fn reject_line(&mut self, e: &WireError, out: &mut impl Write) -> std::io::Result<()> {
        if e.query {
            writeln!(out, "{}", e.reply())?;
            return out.flush();
        }
        self.queued.push(e.reply());
        Ok(())
    }

    /// Dispatches one protocol line against `sess`, writing any
    /// response to `out`.
    ///
    /// # Errors
    ///
    /// Only transport ([`std::io::Error`]) failures propagate;
    /// simulation errors travel the protocol as `err` lines.
    pub fn handle_line(
        &mut self,
        sess: &mut dyn Session,
        line: &str,
        out: &mut impl Write,
    ) -> std::io::Result<()> {
        let cmd = match Command::parse(line) {
            Ok(cmd) => cmd,
            Err(e) => return self.reject_line(&e, out),
        };
        // A query's one response line: its reply, or its error. (A
        // mutating command's error waits in `queue` for the fence.)
        fn answer(
            out: &mut impl Write,
            reply: Result<Reply<'_>, GsimError>,
        ) -> std::io::Result<()> {
            match reply {
                Ok(reply) => writeln!(out, "{reply}")?,
                Err(e) => writeln!(out, "{}", e.to_wire())?,
            }
            out.flush()
        }
        match cmd {
            Command::Poke { name, hex } => {
                // The value travels at the hex digits' natural width;
                // the backend zero-extends or truncates to the input's
                // declared width (the trait's poke contract).
                let words = wire::parse_hex(hex).unwrap_or_default();
                let v = Value::from_words(words, hex.len() as u32 * 4);
                self.queue(sess.poke(name, v));
            }
            Command::Load { mem, image } => self.queue(sess.load_mem(mem, &image)),
            Command::Step(n) => {
                self.queue(sess.step(n));
                self.drain_trace(out)?;
            }
            Command::Restore(id) => {
                self.queue(sess.restore(SnapshotId::from_raw(id)));
                self.drain_trace(out)?;
            }
            Command::LoadState(blob) => {
                self.queue(sess.import_state(blob.as_bytes()));
                self.drain_trace(out)?;
            }
            Command::Peek(name) => match sess.peek(name) {
                Ok(v) => {
                    let (width, hex) = (v.width(), format!("{v:x}"));
                    answer(out, Ok(Reply::Val { width, hex: &hex }))?;
                }
                Err(e) => answer(out, Err(e))?,
            },
            Command::Counters => answer(
                out,
                sess.counters().map(|c| {
                    Reply::Counters([c.cycles, c.supernode_evals, c.node_evals, c.value_changes])
                }),
            )?,
            Command::Snapshot => answer(out, sess.snapshot().map(|id| Reply::Snap(id.raw())))?,
            Command::State => {
                let blob = sess.export_state().and_then(|blob| {
                    blob.ok_or_else(|| {
                        GsimError::Config("this backend does not export state".into())
                    })
                });
                match blob {
                    Ok(blob) => {
                        let (cycle, blob) = (sess.cycle(), String::from_utf8_lossy(&blob));
                        answer(out, Ok(Reply::State { cycle, blob: &blob }))?;
                    }
                    Err(e) => answer(out, Err(e))?,
                }
            }
            Command::List => {
                let all = (|| Ok((sess.inputs()?, sess.signals()?, sess.memories()?)))();
                match all {
                    Ok((ins, sigs, mems)) => {
                        fn pairs(v: &[gsim_sim::SignalInfo]) -> Vec<(&str, u32)> {
                            v.iter().map(|s| (s.name.as_str(), s.width)).collect()
                        }
                        writeln!(out, "{}", Reply::Inputs(pairs(&ins)))?;
                        writeln!(out, "{}", Reply::Signals(pairs(&sigs)))?;
                        let mems = mems.iter().map(|m| (m.name.as_str(), m.depth, m.width));
                        answer(out, Ok(Reply::Mems(mems.collect())))?;
                    }
                    Err(e) => answer(out, Err(e))?,
                }
            }
            Command::TraceOn(names) => {
                let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
                let buf = SharedBuf::new();
                // The session refuses a second trace and validates
                // the subset (typed errors surface at the next fence),
                // and writes the baseline burst into the sink on
                // success; drain it so the burst precedes everything
                // that follows.
                match sess.trace_start(
                    (!names.is_empty()).then_some(names.as_slice()),
                    Box::new(LineSink::new(buf.clone())),
                ) {
                    Ok(()) => {
                        self.trace_buf = Some(buf);
                        self.drain_trace(out)?;
                    }
                    Err(e) => self.queue(Err(e)),
                }
            }
            Command::TraceOff => {
                self.queue(sess.trace_stop());
                // Flush whatever the sink staged up to the stop, then
                // drop the subscription.
                self.drain_trace(out)?;
                self.trace_buf = None;
            }
            Command::Sync => self.sync(sess.cycle(), out)?,
            // A service session ends when its stream closes; `exit` is
            // for the emitted binary's stdin loop.
            Command::Exit => self.queue(Err(GsimError::Protocol(
                "exit is not a service command: close the connection".into(),
            ))),
        }
        Ok(())
    }
}
