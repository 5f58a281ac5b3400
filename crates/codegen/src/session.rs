//! The persistent AoT session: one compiled simulator process, kept
//! resident for a whole interactive run.
//!
//! [`AotSession`] spawns the `rustc`-built binary in its `--serve`
//! mode and drives it with the workspace's one wire client
//! ([`gsim_sim::WireSession`], protocol in [`gsim_sim::wire`]) over a
//! [`ChildPipe`] — the transport that owns the child process and turns
//! its failure modes (death, stall) into typed errors. This is what
//! makes the AoT backend usable for *reactive* testbenches — stimulus
//! that depends on previous outputs — and amortizes the one-time
//! `rustc` cost to zero per step: where [`AotSim::run`] spawns a fresh
//! process (and re-parses stimulus) per invocation, a session pays one
//! spawn for arbitrarily many poke/step/peek interactions.

use crate::build::{AotError, AotSim, ArtifactDir};
use gsim_sim::{FaultPlan, GsimError, Transport, WireClient, WireSession};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::Duration;

impl From<AotError> for GsimError {
    fn from(e: AotError) -> Self {
        GsimError::Backend(e.to_string())
    }
}

impl From<crate::rust::EmitError> for GsimError {
    fn from(e: crate::rust::EmitError) -> Self {
        GsimError::Backend(e.to_string())
    }
}

/// Default per-operation response deadline: generous enough for a
/// heavyweight design stepping a full pipeline chunk, short enough
/// that a wedged child surfaces as [`GsimError::Timeout`] instead of
/// hanging the driver forever. Override with
/// [`AotSession::set_deadline`].
pub const DEFAULT_OP_DEADLINE: Duration = Duration::from_secs(30);

/// A live connection to a compiled simulator process in server mode.
///
/// Created by [`AotSim::session`]; a [`gsim_sim::Session`] like every
/// other backend (through [`WireClient`]), so harnesses drive it
/// exactly like the interpreter engines. The child process exits when
/// the session is dropped (its stdin closes); the scratch directory
/// holding the binary stays alive as long as either the session or its
/// `AotSim` does.
///
/// # Supervision
///
/// The session is *supervised*: responses are read on a dedicated
/// thread, so every protocol turn carries a deadline
/// ([`GsimError::Timeout`] when the child stops responding) and child
/// death is detected — EOF on the pipe, a failed write, or a
/// `try_wait` liveness check at each fence — and surfaced as a typed
/// [`GsimError::SessionLost`] carrying the exit status, instead of a
/// hang or a bare broken-pipe error. After either failure the session
/// is **poisoned**: every subsequent call fails fast with
/// [`GsimError::SessionLost`], and dropping it kills the child
/// outright rather than waiting for a graceful exit. Wrap sessions in
/// [`gsim_sim::SupervisedSession`] to recover automatically
/// (respawn + checkpoint import + journal replay) instead of
/// propagating the loss.
#[derive(Debug)]
pub struct AotSession(WireSession<ChildPipe>);

impl WireClient for AotSession {
    type Transport = ChildPipe;

    fn wire(&self) -> &WireSession<ChildPipe> {
        &self.0
    }

    fn wire_mut(&mut self) -> &mut WireSession<ChildPipe> {
        &mut self.0
    }
}

impl AotSession {
    /// Overrides the per-operation response deadline (default
    /// [`DEFAULT_OP_DEADLINE`]). Chaos tests shorten it to surface
    /// injected stalls quickly.
    pub fn set_deadline(&mut self, deadline: Duration) {
        self.0.transport_mut().deadline = deadline;
    }

    /// The compiled simulator's process id (for tests that kill the
    /// child out from under the session).
    pub fn child_id(&self) -> u32 {
        self.0.transport().child.id()
    }
}

/// The [`Transport`] under an [`AotSession`]: the child process, its
/// stdin, and the reader thread draining its stdout.
#[derive(Debug)]
pub struct ChildPipe {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Response lines, fed by the reader thread; `recv_timeout` on
    /// this channel is what gives every read a deadline.
    lines: mpsc::Receiver<std::io::Result<String>>,
    reader: Option<std::thread::JoinHandle<()>>,
    deadline: Duration,
    /// Set on the first transport failure; fail-fast from then on.
    poisoned: bool,
    /// The compiled binary the child runs — retained so
    /// [`Transport::fork`] can spawn a sibling process from the same
    /// artifact (no `rustc` involved in a fork).
    binary: PathBuf,
    /// Working directory forks inherit (see [`AotSim::session_in`]).
    cwd: Option<PathBuf>,
    _dir: Arc<ArtifactDir>,
}

impl AotSim {
    /// Spawns the compiled binary in `--serve` mode and returns the
    /// persistent session speaking its wire protocol.
    ///
    /// # Errors
    ///
    /// Returns [`AotError::RunFailed`] when the process cannot be
    /// spawned or its pipes cannot be set up.
    pub fn session(&self) -> Result<AotSession, AotError> {
        self.session_in(None)
    }

    /// Like [`AotSim::session`], but runs the child process with the
    /// given working directory — the server uses this to isolate each
    /// client session's scratch files from the shared cached artifact.
    ///
    /// # Errors
    ///
    /// Returns [`AotError::RunFailed`] when the process cannot be
    /// spawned or its pipes cannot be set up.
    pub fn session_in(&self, cwd: Option<&Path>) -> Result<AotSession, AotError> {
        self.session_with(cwd, &FaultPlan::default())
    }

    /// Like [`AotSim::session_in`], with a [`FaultPlan`] applied to
    /// the child: its child-fault knobs travel in the
    /// `GSIM_CHILD_FAULT` environment variable. An empty plan
    /// *removes* the variable, so a supervisor respawning after an
    /// injected crash gets a healthy child rather than re-inheriting
    /// the fault.
    ///
    /// # Errors
    ///
    /// Returns [`AotError::RunFailed`] when the process cannot be
    /// spawned or its pipes cannot be set up.
    pub fn session_with(
        &self,
        cwd: Option<&Path>,
        faults: &FaultPlan,
    ) -> Result<AotSession, AotError> {
        spawn_serve(&self.binary_path, cwd, faults, self.dir_handle())
            .map(|pipe| AotSession(WireSession::new(pipe)))
    }
}

/// Spawns `binary --serve` and wires up the transport plumbing (pipes,
/// deadline reader thread). Factored out of [`AotSim::session_with`]
/// so a live session can fork a sibling process from the same binary
/// without holding an `AotSim` handle.
fn spawn_serve(
    binary: &Path,
    cwd: Option<&Path>,
    faults: &FaultPlan,
    dir: Arc<ArtifactDir>,
) -> Result<ChildPipe, AotError> {
    let mut cmd = Command::new(binary);
    cmd.arg("--serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    match faults.child_env() {
        Some(spec) => {
            cmd.env("GSIM_CHILD_FAULT", spec);
        }
        None => {
            cmd.env_remove("GSIM_CHILD_FAULT");
        }
    }
    if let Some(d) = cwd {
        cmd.current_dir(d);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| AotError::RunFailed(format!("cannot spawn server: {e}")))?;
    let stdin = child
        .stdin
        .take()
        .ok_or_else(|| AotError::RunFailed("no stdin pipe".into()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| AotError::RunFailed("no stdout pipe".into()))?;
    // All reads happen on a dedicated thread so the session can
    // bound every response wait with `recv_timeout` — a blocking
    // `read_line` on the pipe itself could hang forever on a
    // stalled child.
    let (tx, lines) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let trimmed = line.trim_end().len();
                    line.truncate(trimmed);
                    if tx.send(Ok(line)).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        }
    });
    Ok(ChildPipe {
        child,
        stdin: Some(stdin),
        lines,
        reader: Some(reader),
        deadline: DEFAULT_OP_DEADLINE,
        poisoned: false,
        binary: binary.to_path_buf(),
        cwd: cwd.map(Path::to_path_buf),
        _dir: dir,
    })
}

impl Drop for ChildPipe {
    fn drop(&mut self) {
        // Closing stdin ends the server's command loop; reap the child
        // so no zombie outlives the session. A poisoned child gets no
        // goodbye — it may be wedged and would never exit on its own.
        drop(self.stdin.take());
        if self.poisoned {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        // The child's stdout is closed now, so the reader thread sees
        // EOF and exits promptly.
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

impl ChildPipe {
    /// Poisons the session and classifies the transport failure: if
    /// the child is observably dead (`try_wait`), the error carries
    /// its exit status.
    fn lost(&mut self, context: &str) -> GsimError {
        self.poisoned = true;
        match self.child.try_wait() {
            Ok(Some(status)) => {
                GsimError::SessionLost(format!("compiled simulator exited ({status}); {context}"))
            }
            _ => GsimError::SessionLost(context.to_string()),
        }
    }

    /// Every call after the first transport failure fails here.
    fn fail_fast(&self) -> Result<(), GsimError> {
        if self.poisoned {
            return Err(GsimError::SessionLost(
                "session poisoned by an earlier transport failure".into(),
            ));
        }
        Ok(())
    }
}

impl Transport for ChildPipe {
    const BACKEND: &'static str = "aot";

    fn send(&mut self, bytes: &[u8]) -> Result<(), GsimError> {
        self.fail_fast()?;
        let Some(w) = self.stdin.as_mut() else {
            return Err(GsimError::Io("server stdin closed".into()));
        };
        match w.write_all(bytes) {
            Ok(()) => Ok(()),
            // A write failure almost always means the child is gone
            // (EPIPE); classify it with the exit status.
            Err(e) => Err(self.lost(&format!("server write: {e}"))),
        }
    }

    fn flush(&mut self) -> Result<(), GsimError> {
        let Some(w) = self.stdin.as_mut() else {
            return Err(GsimError::Io("server stdin closed".into()));
        };
        match w.flush() {
            Ok(()) => Ok(()),
            Err(e) => Err(self.lost(&format!("server flush: {e}"))),
        }
    }

    fn recv(&mut self) -> Result<String, GsimError> {
        match self.lines.recv_timeout(self.deadline) {
            Ok(Ok(line)) => Ok(line),
            Ok(Err(e)) => Err(self.lost(&format!("server read: {e}"))),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.lost("server closed its output")),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.poisoned = true;
                Err(GsimError::Timeout(format!(
                    "no response from the compiled simulator within {:?}",
                    self.deadline
                )))
            }
        }
    }

    /// Fail-fast gate plus a cheap liveness probe: a child that died
    /// since the last turn is reported as [`GsimError::SessionLost`]
    /// before any pipe traffic.
    fn check_alive(&mut self) -> Result<(), GsimError> {
        self.fail_fast()?;
        if let Ok(Some(status)) = self.child.try_wait() {
            self.poisoned = true;
            return Err(GsimError::SessionLost(format!(
                "compiled simulator exited ({status})"
            )));
        }
        Ok(())
    }

    /// Spawns a sibling process from the *same* cached binary. The
    /// fork always gets a healthy environment (no inherited fault
    /// injection) so chaos plans apply only to the session they were
    /// opened with.
    fn fork(&mut self) -> Result<ChildPipe, GsimError> {
        let mut pipe = spawn_serve(
            &self.binary,
            self.cwd.as_deref(),
            &FaultPlan::default(),
            Arc::clone(&self._dir),
        )
        .map_err(|e| GsimError::Backend(format!("cannot fork compiled session: {e}")))?;
        pipe.deadline = self.deadline;
        Ok(pipe)
    }
}
