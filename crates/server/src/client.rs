//! The service client: [`ClientSession`] is a [`gsim_sim::Session`]
//! over a socket to a running [`crate::Server`], so every harness
//! written against `&mut dyn Session` — including the differential
//! tests that pin the engines to the reference interpreter — drives a
//! *remote* session unchanged.
//!
//! The session protocol is spoken by the workspace's one wire client,
//! [`gsim_sim::WireSession`], over a [`SocketTransport`]; this file
//! adds the four service verbs: [`ClientSession::open_design`],
//! [`ClientSession::stats`], [`ClientSession::explore`], and
//! [`ClientSession::shutdown_server`].

use crate::net::{Endpoint, Stream};
use crate::server::ServiceStats;
use gsim_sim::wire::Reply;
use gsim_sim::{GsimError, Scenario, Transport, WireClient, WireSession};
use std::io::{BufRead as _, BufReader, Write as _};

/// The server's answer to `design`: which artifact the session is
/// bound to and how it was obtained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignInfo {
    /// Content-addressed artifact key (32 hex digits).
    pub key: String,
    /// `"hit"` (cached binary reused), `"miss"` (compiled now),
    /// `"interp"` / `"jit"` (in-process backends — no artifact), or
    /// `"fallback"` (an `aot` request whose compile failed, served on
    /// the in-process `jit` backend instead of refused).
    pub status: String,
    /// Server-side milliseconds from request to ready.
    pub ready_ms: u64,
}

/// A remote simulation session on a running [`crate::Server`].
#[derive(Debug)]
pub struct ClientSession(WireSession<SocketTransport>);

impl WireClient for ClientSession {
    type Transport = SocketTransport;

    fn wire(&self) -> &WireSession<SocketTransport> {
        &self.0
    }

    fn wire_mut(&mut self) -> &mut WireSession<SocketTransport> {
        &mut self.0
    }
}

/// The [`Transport`] under a [`ClientSession`]: the two halves of one
/// socket. A failed read or write is [`GsimError::Io`].
#[derive(Debug)]
pub struct SocketTransport {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Transport for SocketTransport {
    const BACKEND: &'static str = "client";

    fn send(&mut self, bytes: &[u8]) -> Result<(), GsimError> {
        self.writer
            .write_all(bytes)
            .map_err(|e| GsimError::Io(format!("server write: {e}")))
    }

    fn flush(&mut self) -> Result<(), GsimError> {
        self.writer
            .flush()
            .map_err(|e| GsimError::Io(format!("server flush: {e}")))
    }

    fn recv(&mut self) -> Result<String, GsimError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| GsimError::Io(format!("server read: {e}")))?;
        if n == 0 {
            return Err(GsimError::Io("server closed the connection".into()));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

impl ClientSession {
    /// Connects to the service at `ep`. The connection is idle until
    /// [`ClientSession::open_design`] binds it to a design.
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub fn connect(ep: &Endpoint) -> std::io::Result<ClientSession> {
        let stream = Stream::connect(ep)?;
        let writer = stream.try_clone()?;
        let reader = BufReader::new(stream);
        Ok(ClientSession(WireSession::new(SocketTransport {
            reader,
            writer,
        })))
    }

    /// Connects with bounded retry: up to `attempts` tries, sleeping
    /// `backoff` before the second and doubling it each further try.
    /// Rides out a service that is still binding its socket (or
    /// briefly restarting) without hammering it.
    ///
    /// # Errors
    ///
    /// The *last* attempt's socket error once the budget is spent.
    pub fn connect_with_retry(
        ep: &Endpoint,
        attempts: u32,
        backoff: std::time::Duration,
    ) -> std::io::Result<ClientSession> {
        let mut wait = backoff;
        let mut last = None;
        for tried in 0..attempts.max(1) {
            if tried > 0 {
                std::thread::sleep(wait);
                wait *= 2;
            }
            match ClientSession::connect(ep) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")))
    }

    /// Sends FIRRTL source and binds this session to the compiled
    /// design. `backend` is `"aot"` (through the artifact cache),
    /// `"interp"`, or `"jit"`.
    ///
    /// # Errors
    ///
    /// [`GsimError::Parse`] / [`GsimError::Compile`] travel back as
    /// typed errors; [`GsimError::Protocol`] for a source over
    /// [`gsim_sim::wire::MAX_UPLOAD_BYTES`] (nothing is sent); transport
    /// failures are [`GsimError::Io`].
    pub fn open_design(&mut self, firrtl: &str, backend: &str) -> Result<DesignInfo, GsimError> {
        let header = format_args!("design {} {backend}", firrtl.len());
        let line = self.0.request(header, firrtl.as_bytes())?;
        let mut it = line.split_whitespace();
        let (Some("ready"), Some(key), Some(status), Some(ms)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(GsimError::Protocol(format!("bad ready response: {line}")));
        };
        self.0.set_cycle(0);
        Ok(DesignInfo {
            key: key.to_string(),
            status: status.to_string(),
            ready_ms: ms.parse().unwrap_or(0),
        })
    }

    /// Fetches the service-level counters (sessions, cache hits, …).
    ///
    /// # Errors
    ///
    /// [`GsimError::Io`] on transport failure, [`GsimError::Protocol`]
    /// on a malformed response.
    pub fn stats(&mut self) -> Result<ServiceStats, GsimError> {
        let line = self.0.request("stats", &[])?;
        ServiceStats::parse_wire(&line)
            .ok_or_else(|| GsimError::Protocol(format!("bad stats response: {line}")))
    }

    /// Runs `n` perturbed branches of `scenario` on the server, forked
    /// from the session's current state, and returns the streamed
    /// `branch` wire lines verbatim (the format of
    /// [`gsim_sim::BranchResult::render_wire`], index order). The
    /// remote session is back at its pre-explore state afterwards.
    ///
    /// # Errors
    ///
    /// Typed simulation errors travel back as `err` lines; transport
    /// failures are [`GsimError::Io`].
    pub fn explore(&mut self, scenario: &Scenario, n: usize) -> Result<Vec<String>, GsimError> {
        let text = scenario.render();
        let header = format_args!("explore {n} {}", text.len());
        let mut line = self.0.request(header, text.as_bytes())?;
        let mut branches = Vec::new();
        loop {
            if let Ok(Reply::Ok(cycle)) = Reply::parse(&line) {
                self.0.set_cycle(cycle);
                return Ok(branches);
            }
            branches.push(line);
            line = self.0.response()?;
        }
    }

    /// Asks the server to shut down (test/admin facility).
    ///
    /// # Errors
    ///
    /// [`GsimError::Io`] on transport failure.
    pub fn shutdown_server(&mut self) -> Result<(), GsimError> {
        let line = self.0.request("shutdown", &[])?;
        match Reply::parse(&line) {
            Ok(Reply::Ok(_)) => Ok(()),
            _ => Err(GsimError::Protocol(format!(
                "bad shutdown response: {line}"
            ))),
        }
    }
}
