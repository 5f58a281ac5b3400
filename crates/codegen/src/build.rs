//! The AoT build driver: emit → `rustc -O` → run.
//!
//! [`compile`] writes the [`crate::emit_rust`] output to a scratch
//! directory, invokes the host `rustc` (no cargo, no network, no
//! dependencies — the emitted program is fully standalone), and returns
//! an [`AotSim`] handle that can run the compiled binary over a
//! [`gsim_sim::Scenario`] and parse its peeks + counters report.
//!
//! The scratch directory is deleted when the [`AotSim`] is dropped
//! unless [`AotOptions::keep_dir`] is set.

use crate::rust::{emit_rust, EmitError, RustOutput};
use gsim_graph::Graph;
use gsim_partition::PartitionOptions;
use gsim_sim::Scenario;
use gsim_value::Value;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for the AoT build.
#[derive(Debug, Clone, Default)]
pub struct AotOptions {
    /// Supernode partitioning for the emitted schedule.
    pub partition: PartitionOptions,
    /// Keep the scratch directory (source + binary) instead of
    /// deleting it on drop — useful for debugging emitted code.
    pub keep_dir: bool,
}

/// Error from building or running an AoT simulator.
#[derive(Debug)]
pub enum AotError {
    /// The emitter rejected the design.
    Emit(EmitError),
    /// Filesystem trouble in the scratch directory.
    Io(std::io::Error),
    /// `rustc` could not be spawned (not installed / not on PATH).
    RustcMissing(std::io::Error),
    /// `rustc` rejected the emitted program (a codegen bug; the
    /// message carries the compiler diagnostics).
    RustcFailed(String),
    /// The compiled binary exited with an error.
    RunFailed(String),
    /// The binary's report could not be parsed.
    BadReport(String),
}

impl std::fmt::Display for AotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AotError::Emit(e) => write!(f, "emit: {e}"),
            AotError::Io(e) => write!(f, "io: {e}"),
            AotError::RustcMissing(e) => write!(f, "rustc not available: {e}"),
            AotError::RustcFailed(msg) => write!(f, "rustc failed:\n{msg}"),
            AotError::RunFailed(msg) => write!(f, "compiled simulator failed:\n{msg}"),
            AotError::BadReport(msg) => write!(f, "unparseable simulator report: {msg}"),
        }
    }
}

impl std::error::Error for AotError {}

impl From<EmitError> for AotError {
    fn from(e: EmitError) -> Self {
        AotError::Emit(e)
    }
}

impl From<std::io::Error> for AotError {
    fn from(e: std::io::Error) -> Self {
        AotError::Io(e)
    }
}

/// The `rustc` executable the driver invokes: `$GSIM_RUSTC`, else
/// `$RUSTC` (set by cargo for build scripts), else `rustc` from PATH.
pub fn rustc_path() -> String {
    std::env::var("GSIM_RUSTC")
        .or_else(|_| std::env::var("RUSTC"))
        .unwrap_or_else(|_| "rustc".into())
}

/// `true` if the host `rustc` can be invoked (used by tests and the
/// bench harness to skip gracefully on toolchain-less hosts).
pub fn rustc_available() -> bool {
    Command::new(rustc_path())
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// The parsed report of one compiled-simulator run.
#[derive(Debug, Clone, Default)]
pub struct AotRun {
    /// Final `(output name, value)` peeks, parsed into typed
    /// [`Value`]s at the protocol boundary (exact declared width).
    pub peeks: Vec<(String, Value)>,
    /// Semantic counters (`cycles`, `supernode_evals`, `node_evals`,
    /// `value_changes`).
    pub counters: Vec<(String, u64)>,
    /// Seconds the binary spent in its cycle loop (self-reported, so
    /// process spawn and stimulus parsing are excluded).
    pub run_seconds: f64,
    /// Per-cycle `(output name, hex)` rows when tracing was requested.
    pub trace: Vec<Vec<(String, String)>>,
    /// The one-line JSON summary the binary printed.
    pub json: String,
}

impl AotRun {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a final peek by name.
    pub fn peek(&self, name: &str) -> Option<&Value> {
        self.peeks.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Looks up a final peek as `u64` (`None` if missing or too wide).
    pub fn peek_u64(&self, name: &str) -> Option<u64> {
        self.peek(name).and_then(Value::to_u64)
    }
}

/// The directory holding one compiled artifact (emitted source +
/// native binary), shared between the [`AotSim`] handle and any
/// persistent [`crate::AotSession`]s spawned from it.
///
/// Ownership is explicit, which is what lets a *cached* artifact
/// outlive every handle that ever pointed at it:
///
/// * `owned == true` — a private scratch build: the directory is
///   deleted when the *last* holder (sim or session) drops, unless
///   `keep` was requested. This is the pre-cache behaviour.
/// * `owned == false` — the artifact lives in an
///   [`crate::ArtifactCache`]: handles never delete it; only the
///   cache's eviction policy does. (On Unix, evicting the files while
///   a session's child process still runs them is safe — the inode
///   stays alive until the process exits.)
///
/// Run-scoped scratch files (stimulus streams) are *not* written
/// here — [`AotSim::run`] uses private temp files — so cache entries
/// stay immutable after publication.
#[derive(Debug)]
pub(crate) struct ArtifactDir {
    pub(crate) path: PathBuf,
    keep: bool,
    owned: bool,
}

impl Drop for ArtifactDir {
    fn drop(&mut self) {
        if self.owned && !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// A compiled ahead-of-time simulator: the emitted source plus the
/// `rustc`-built native binary, ready to run.
#[derive(Debug)]
pub struct AotSim {
    /// The emission result (code, sizes, emit time).
    pub emit: RustOutput,
    /// Wall-clock time of the `rustc -O` invocation —
    /// [`Duration::ZERO`] when the binary came out of an
    /// [`crate::ArtifactCache`] without compiling.
    pub rustc_time: Duration,
    /// Size of the produced binary in bytes.
    pub binary_bytes: u64,
    /// Path of the emitted source file.
    pub source_path: PathBuf,
    /// Path of the compiled binary.
    pub binary_path: PathBuf,
    /// `true` when the binary was served from an
    /// [`crate::ArtifactCache`] hit (no `rustc` ran for this handle).
    pub from_cache: bool,
    dir: Arc<ArtifactDir>,
    run_counter: std::cell::Cell<u32>,
}

fn scratch_dir(design: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tag = format!(
        "gsim_aot_{}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed),
        design
    );
    std::env::temp_dir().join(tag)
}

/// Emits, writes, and compiles `graph` into a native simulator binary.
///
/// # Errors
///
/// Returns [`AotError`] when emission fails, `rustc` is unavailable,
/// or the emitted program does not compile.
pub fn compile(graph: &Graph, opts: &AotOptions) -> Result<AotSim, AotError> {
    let emit = emit_rust(graph, &opts.partition)?;
    let dir = scratch_dir(graph.name());
    std::fs::create_dir_all(&dir)?;
    let result = compile_in(&dir, emit, opts);
    if result.is_err() && !opts.keep_dir {
        // Until an `AotSim` exists (whose Drop owns cleanup), error
        // paths must not leak the scratch directory.
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn compile_in(dir: &Path, emit: RustOutput, opts: &AotOptions) -> Result<AotSim, AotError> {
    let source_path = dir.join("sim.rs");
    let binary_path = dir.join(binary_name());
    std::fs::write(&source_path, &emit.code)?;
    let rustc_time = run_rustc(&source_path, &binary_path)?;
    let binary_bytes = std::fs::metadata(&binary_path)?.len();
    Ok(AotSim {
        emit,
        rustc_time,
        binary_bytes,
        source_path,
        binary_path,
        from_cache: false,
        dir: Arc::new(ArtifactDir {
            path: dir.to_path_buf(),
            keep: opts.keep_dir,
            owned: true,
        }),
        run_counter: std::cell::Cell::new(0),
    })
}

/// Platform name of the compiled simulator binary inside an artifact
/// directory.
pub(crate) fn binary_name() -> &'static str {
    if cfg!(windows) {
        "sim.exe"
    } else {
        "sim"
    }
}

/// Invokes `rustc --edition 2021 -O` on `source_path`, producing
/// `binary_path`. Returns the wall-clock compile time.
pub(crate) fn run_rustc(source_path: &Path, binary_path: &Path) -> Result<Duration, AotError> {
    let start = Instant::now();
    let out = Command::new(rustc_path())
        .arg("--edition")
        .arg("2021")
        .arg("-O")
        .arg("-o")
        .arg(binary_path)
        .arg(source_path)
        .output()
        .map_err(AotError::RustcMissing)?;
    if !out.status.success() {
        let msg = String::from_utf8_lossy(&out.stderr).into_owned();
        return Err(AotError::RustcFailed(msg));
    }
    Ok(start.elapsed())
}

/// Builds an [`AotSim`] handle over an already-compiled artifact that
/// the cache owns (handles never delete it; see [`ArtifactDir`]).
pub(crate) fn cache_resident_sim(
    emit: RustOutput,
    entry_dir: &Path,
    rustc_time: Duration,
    from_cache: bool,
) -> Result<AotSim, AotError> {
    let source_path = entry_dir.join("sim.rs");
    let binary_path = entry_dir.join(binary_name());
    let binary_bytes = std::fs::metadata(&binary_path)?.len();
    Ok(AotSim {
        emit,
        rustc_time,
        binary_bytes,
        source_path,
        binary_path,
        from_cache,
        dir: Arc::new(ArtifactDir {
            path: entry_dir.to_path_buf(),
            keep: true,
            owned: false,
        }),
        run_counter: std::cell::Cell::new(0),
    })
}

impl AotSim {
    /// Runs the compiled binary for `cycles` cycles over `stimulus`,
    /// optionally recording a per-cycle output trace.
    ///
    /// # Errors
    ///
    /// Returns [`AotError`] when the binary fails or its report cannot
    /// be parsed.
    pub fn run(&self, cycles: u64, stimulus: &Scenario, trace: bool) -> Result<AotRun, AotError> {
        let seq = self.run_counter.get();
        self.run_counter.set(seq + 1);
        // Run-scoped scratch lives in the system temp dir, never in
        // the artifact directory: cache-resident artifacts must stay
        // immutable (and evictable) while handles run them.
        let stim_path = std::env::temp_dir().join(format!(
            "gsim_stim_{}_{:p}_{seq}.txt",
            std::process::id(),
            self
        ));
        std::fs::write(&stim_path, stimulus.render())?;
        let mut cmd = Command::new(&self.binary_path);
        cmd.arg("--cycles")
            .arg(cycles.to_string())
            .arg("--stimulus")
            .arg(&stim_path);
        if trace {
            cmd.arg("--trace");
        }
        let out = cmd.output()?;
        let _ = std::fs::remove_file(&stim_path);
        if !out.status.success() {
            return Err(AotError::RunFailed(format!(
                "exit {:?}\nstderr:\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )));
        }
        parse_report(&String::from_utf8_lossy(&out.stdout))
    }

    /// Shared handle on the artifact directory, for persistent
    /// sessions that must keep the binary alive past this `AotSim`'s
    /// drop (no-op ownership for cache-resident artifacts).
    pub(crate) fn dir_handle(&self) -> Arc<ArtifactDir> {
        Arc::clone(&self.dir)
    }
}

/// Parses the line-oriented report the emitted simulator prints.
fn parse_report(stdout: &str) -> Result<AotRun, AotError> {
    let mut run = AotRun::default();
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("trace") => {
                let _cycle = it.next();
                let row: Vec<(String, String)> = it
                    .filter_map(|tok| {
                        tok.split_once('=')
                            .map(|(n, v)| (n.to_string(), v.to_string()))
                    })
                    .collect();
                run.trace.push(row);
            }
            Some("peek") => {
                // `peek <name> <width> <hex>`: parsed into a typed
                // Value right here at the protocol boundary.
                let name = it
                    .next()
                    .ok_or_else(|| AotError::BadReport(format!("bad peek line: {line}")))?;
                let width: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| AotError::BadReport(format!("bad peek line: {line}")))?;
                let hex = it
                    .next()
                    .ok_or_else(|| AotError::BadReport(format!("bad peek line: {line}")))?;
                let val = Value::from_str_radix(hex, 16, width)
                    .map_err(|e| AotError::BadReport(format!("bad peek value {hex:?}: {e}")))?;
                run.peeks.push((name.to_string(), val));
            }
            Some("counter") => {
                let name = it
                    .next()
                    .ok_or_else(|| AotError::BadReport(format!("bad counter line: {line}")))?;
                let val: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| AotError::BadReport(format!("bad counter line: {line}")))?;
                run.counters.push((name.to_string(), val));
            }
            Some("timing") => {
                let _name = it.next();
                run.run_seconds = it.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
            }
            Some("json") => {
                run.json = line
                    .strip_prefix("json")
                    .unwrap_or("")
                    .trim_start()
                    .to_string();
            }
            _ => {}
        }
    }
    if run.counters.is_empty() {
        return Err(AotError::BadReport(
            "no counter lines in simulator output".into(),
        ));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_parsing_roundtrip() {
        let out = "trace 0 out=ff halt=0\npeek out 8 ff\ncounter cycles 3\n\
                   timing run_seconds 0.000001\njson {\"cycles\":3}\n";
        let run = parse_report(out).unwrap();
        assert_eq!(run.peek("out"), Some(&Value::from_u64(0xff, 8)));
        assert_eq!(run.peek_u64("out"), Some(0xff));
        assert_eq!(run.counter("cycles"), Some(3));
        assert_eq!(run.trace.len(), 1);
        assert!(run.run_seconds > 0.0);
        assert_eq!(run.json, "{\"cycles\":3}");
    }
}
