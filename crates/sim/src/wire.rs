//! The session wire protocol, defined once: the command and reply
//! grammar, its defaults, hex rules and size limits.
//!
//! This file depends on nothing but `std`. It is compiled as
//! `gsim_sim::wire` — where `gsim_server`'s `SessionProto` dispatches
//! on [`Command::parse`] and [`crate::WireSession`] speaks the client
//! side — and the AoT emitter `include_str!`s it into every emitted
//! simulator, whose `--serve` loop dispatches on the same enum. There
//! is no other tokeniser of protocol lines in the workspace.
//!
//! # Protocol
//!
//! A server is a line-oriented command loop (the emitted binary's
//! `--serve` mode on stdin/stdout, `gsim serve` on a socket). Requests
//! are single lines of whitespace-separated tokens; values travel as
//! lowercase hex with no `0x` prefix. Commands that *mutate* are silent
//! on success (so a driver can pipeline thousands of them without a
//! round trip per command) and queue an `err`-class line on failure;
//! commands that *query* always print exactly one response line.
//!
//! | request | response | notes |
//! |---|---|---|
//! | `poke <name> <hex>` | silent / `err unknown-input <name>` | masked to the input's width |
//! | `step [<n>]` | silent | runs `n` clock cycles (default 1) |
//! | `load <mem> <hex>...` | silent / `err unknown-memory <mem>` / `err mem-too-large <mem> <depth> <len>` | one `u64` entry per word, from address 0 |
//! | `peek <name>` | `val <width> <hex>` / `err unknown-signal <name>` | named outputs and inputs |
//! | `counters` | `counters <cycles> <supernode_evals> <node_evals> <value_changes>` | semantic cost counters |
//! | `list` | three lines: `inputs`, `signals`, `mems` (see below) | design introspection |
//! | `snapshot` | `snap <id>` | saves the full simulation state |
//! | `restore <id>` | silent / `err unknown-snapshot <id>` | rolls back to a saved state |
//! | `state` | `state <cycle> <blob>` | exports the full simulation state as one opaque ASCII token |
//! | `loadstate <blob>` | silent / `err protocol ...` | imports a blob from `state` (any process instance of the same artifact) |
//! | `sync` | `ok <cycle>` | barrier: all prior commands have been applied |
//! | `trace on [<name>...]` | `chg` burst (see below) / `err unknown-signal <name>` | starts streaming value changes; no names = every `list`-able signal |
//! | `trace off` | silent | stops streaming |
//! | `exit` | (the server stops reading) | closing the stream has the same effect |
//!
//! A line that does not parse — an unknown verb, a missing or
//! non-numeric operand, a `load` word wider than 64 bits — is an
//! `err protocol ...`, on every endpoint: immediate when the verb was a
//! query, queued otherwise. A line longer than [`MAX_LINE_BYTES`] is
//! discarded and answered with an immediate `err protocol`.
//!
//! `sync` is the fence: it prints the queued `err` lines in command
//! order, then `ok <cycle>`. A driver that wants errors promptly sends
//! `sync` after a batch and reads until the `ok`. `err` lines start
//! with a machine-readable class (`unknown-input`, `unknown-signal`,
//! `unknown-memory`, `mem-too-large`, `unknown-snapshot`, `protocol`,
//! `io`, `timeout`, `session-lost`, …); `GsimError::to_wire` and
//! `GsimError::from_wire` map classes to typed errors in both
//! directions.
//!
//! While tracing is on, the server interleaves unsolicited
//! `chg <cycle> <name> <hex>` records into its output: one per traced
//! signal when tracing starts (the baseline burst, stamped with the
//! current cycle), then one per value change per cycle, always
//! *before* the response to the command that caused them. Clients
//! route any `chg` line to their wave sink and treat the remainder of
//! the stream unchanged.
//!
//! `list` prints exactly three lines — `inputs <name>:<width> ...`
//! (top-level inputs, declaration order), `signals <name>:<width> ...`
//! (every peekable name: outputs then inputs, deduplicated), and
//! `mems <name>:<depth>:<width> ...` — so clients need no out-of-band
//! knowledge of the design.
//!
//! `state`/`loadstate` are the crash-recovery primitives: the blob is
//! a deterministic, whitespace-free serialization of every state
//! element (signal values, register shadows, memories, the activation
//! set, the cycle count, and the semantic counters), and importing it
//! into a *different* process running the same compiled artifact
//! reproduces the source simulation bit for bit.
//!
//! # Service protocol (gsim-server)
//!
//! `gsim serve` speaks a superset of the protocol over a Unix or TCP
//! socket. Four commands establish and manage a session alongside the
//! simulation commands above:
//!
//! | request | response | notes |
//! |---|---|---|
//! | `design <nbytes> [aot\|interp\|jit]` | `ready <key> <hit\|miss\|interp\|jit\|fallback> <ms>` | the next `nbytes` bytes (at most [`MAX_UPLOAD_BYTES`]) are FIRRTL source; `aot` goes through the artifact cache, `interp`/`jit` compile in-process |
//! | `explore <n> <nbytes>` | `branch <i> <cycle> <name>=<hex>... <counters...>` × n, then `ok <cycle>` | the next `nbytes` bytes are a scenario in the stimulus text format; the server forks the open session's current state and runs `n` perturbed branches |
//! | `stats` | `stats sessions <n> active <n> hits <n> misses <n> compiles <n> evictions <n> panics <n> fallbacks <n>` | service-level counters |
//! | `shutdown` | `ok <cycle>` | stops the whole server (test/admin facility) |
//!
//! `ready … fallback` is graceful degradation: an `aot` request whose
//! compile failed is served by the in-process `jit` backend instead of
//! erroring the tenant; the session speaks the identical protocol.

use std::fmt;
use std::io::{self, BufRead};

/// Longest protocol line a server accepts. Sized for the largest
/// legitimate lines — `loadstate` blobs and `load` images of
/// multi-megabyte designs — while bounding what one peer can make a
/// server buffer.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Largest `design` / `explore` payload a service accepts.
pub const MAX_UPLOAD_BYTES: usize = 256 << 20;

/// A line outside the grammar. Servers answer `err protocol <msg>`
/// (see [`WireError::reply`]); clients map it to
/// `GsimError::Protocol`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the line (single-line, bounded length).
    pub msg: String,
    /// `true` when the verb was a query: the peer is waiting for one
    /// response line, so the error is answered immediately rather than
    /// queued for the next `sync`.
    pub query: bool,
}

impl WireError {
    fn new(msg: String) -> WireError {
        WireError { msg, query: false }
    }

    /// The error for a line that exceeded [`MAX_LINE_BYTES`]. Answered
    /// immediately: the discarded line may have been a query.
    pub fn line_too_long() -> WireError {
        WireError {
            msg: format!("line exceeds {MAX_LINE_BYTES} bytes"),
            query: true,
        }
    }

    /// The `err protocol ...` line a server answers with.
    pub fn reply(&self) -> String {
        format!("err protocol {}", self.msg)
    }
}

/// At most 32 bytes of `s`, for echoing peer input in an error.
fn clip(s: &str) -> &str {
    let mut end = s.len().min(32);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Parses hex (either case) into little-endian words, at least one.
/// `None` on an empty string or a non-hex digit.
pub fn parse_hex(s: &str) -> Option<Vec<u64>> {
    if s.is_empty() {
        return None;
    }
    let mut out = vec![0u64; s.len().div_ceil(16)];
    for (k, b) in s.bytes().rev().enumerate() {
        out[k / 16] |= ((b as char).to_digit(16)? as u64) << (k % 16 * 4);
    }
    Some(out)
}

/// Parses hex into a `u64`; `None` on an empty string, a non-hex
/// digit, or a value that does not fit 64 bits.
pub fn parse_hex64(s: &str) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for b in s.bytes() {
        if v >> 60 != 0 {
            return None;
        }
        v = v << 4 | (b as char).to_digit(16)? as u64;
    }
    Some(v)
}

/// One request line, borrowed from the line it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<'a> {
    /// `poke <name> <hex>` — `hex` is validated, not yet converted
    /// ([`parse_hex`] does that).
    Poke {
        /// The input's name.
        name: &'a str,
        /// The value's hex digits.
        hex: &'a str,
    },
    /// `step [<n>]`.
    Step(u64),
    /// `load <mem> <hex>...`.
    Load {
        /// The memory's name.
        mem: &'a str,
        /// One entry per word, from address 0.
        image: Vec<u64>,
    },
    /// `peek <name>`.
    Peek(&'a str),
    /// `counters`.
    Counters,
    /// `list`.
    List,
    /// `snapshot`.
    Snapshot,
    /// `restore <id>`.
    Restore(u64),
    /// `state`.
    State,
    /// `loadstate <blob>`.
    LoadState(&'a str),
    /// `trace on [<name>...]` — empty means every signal.
    TraceOn(Vec<&'a str>),
    /// `trace off`.
    TraceOff,
    /// `sync`.
    Sync,
    /// `exit`.
    Exit,
}

impl<'a> Command<'a> {
    /// Parses one request line (terminator already stripped; blank
    /// lines are the caller's to skip). Tokens after a command's last
    /// operand are ignored.
    ///
    /// # Errors
    ///
    /// [`WireError`] for anything outside the grammar.
    pub fn parse(line: &'a str) -> Result<Command<'a>, WireError> {
        let mut it = line.split_whitespace();
        let verb = it.next().unwrap_or("");
        let needs = |what: &str| WireError::new(format!("{verb} needs {what}"));
        Ok(match verb {
            "poke" => match (it.next(), it.next()) {
                (Some(name), Some(hex)) if hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                    Command::Poke { name, hex }
                }
                (Some(_), Some(hex)) => {
                    return Err(WireError::new(format!("bad hex {:?}", clip(hex))))
                }
                _ => return Err(needs("<name> <hex>")),
            },
            "step" => match it.next() {
                None => Command::Step(1),
                Some(n) => Command::Step(n.parse().map_err(|_| needs("a cycle count"))?),
            },
            "load" => {
                let mem = it.next().ok_or_else(|| needs("<mem> <hex>..."))?;
                let mut image = Vec::new();
                for tok in it {
                    match parse_hex64(tok) {
                        Some(w) => image.push(w),
                        None => {
                            return Err(WireError::new(format!("bad image word {:?}", clip(tok))))
                        }
                    }
                }
                Command::Load { mem, image }
            }
            "peek" => Command::Peek(it.next().ok_or_else(|| WireError {
                query: true,
                ..needs("<name>")
            })?),
            "counters" => Command::Counters,
            "list" => Command::List,
            "snapshot" => Command::Snapshot,
            "restore" => Command::Restore(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| needs("<id>"))?,
            ),
            "state" => Command::State,
            "loadstate" => Command::LoadState(it.next().ok_or_else(|| needs("<blob>"))?),
            "trace" => match it.next() {
                Some("on") => Command::TraceOn(it.collect()),
                Some("off") => Command::TraceOff,
                _ => return Err(needs("on|off")),
            },
            "sync" => Command::Sync,
            "exit" => Command::Exit,
            other => return Err(WireError::new(format!("unknown command {:?}", clip(other)))),
        })
    }
}

/// One response line, borrowed from the line it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply<'a> {
    /// `val <width> <hex>` — answers `peek`.
    Val {
        /// The signal's declared width in bits.
        width: u32,
        /// Its value, lowercase hex without leading zeros.
        hex: &'a str,
    },
    /// `counters <cycles> <supernode_evals> <node_evals> <value_changes>`.
    Counters([u64; 4]),
    /// `snap <id>` — answers `snapshot`.
    Snap(u64),
    /// `state <cycle> <blob>`.
    State {
        /// The exported state's cycle count.
        cycle: u64,
        /// The state, one ASCII token.
        blob: &'a str,
    },
    /// `ok <cycle>` — answers `sync`.
    Ok(u64),
    /// `err <class> <payload...>`; holds everything after `err `.
    Err(&'a str),
    /// `chg <cycle> <name> <hex>` — an unsolicited trace record.
    Chg {
        /// The cycle after which the value is observable.
        cycle: u64,
        /// The traced signal.
        name: &'a str,
        /// Its new value.
        hex: &'a str,
    },
    /// `inputs <name>:<width>...` — first `list` line.
    Inputs(Vec<(&'a str, u32)>),
    /// `signals <name>:<width>...` — second `list` line.
    Signals(Vec<(&'a str, u32)>),
    /// `mems <name>:<depth>:<width>...` — third `list` line.
    Mems(Vec<(&'a str, u64, u32)>),
}

/// Renders the response line, without a terminator.
impl fmt::Display for Reply<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reply::Val { width, hex } => write!(f, "val {width} {hex}"),
            Reply::Counters([c, s, n, v]) => write!(f, "counters {c} {s} {n} {v}"),
            Reply::Snap(id) => write!(f, "snap {id}"),
            Reply::State { cycle, blob } => write!(f, "state {cycle} {blob}"),
            Reply::Ok(cycle) => write!(f, "ok {cycle}"),
            Reply::Err(e) => write!(f, "err {e}"),
            Reply::Chg { cycle, name, hex } => write!(f, "chg {cycle} {name} {hex}"),
            Reply::Inputs(v) | Reply::Signals(v) => {
                f.write_str(if matches!(self, Reply::Inputs(_)) {
                    "inputs"
                } else {
                    "signals"
                })?;
                for (n, w) in v {
                    write!(f, " {n}:{w}")?;
                }
                Ok(())
            }
            Reply::Mems(v) => {
                f.write_str("mems")?;
                for (n, d, w) in v {
                    write!(f, " {n}:{d}:{w}")?;
                }
                Ok(())
            }
        }
    }
}

/// What [`read_line`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// The stream ended before any byte of a new line.
    Eof,
    /// `buf` holds one line.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; it was consumed up to its
    /// terminator and discarded (answer [`WireError::line_too_long`]).
    TooLong,
}

/// Reads one `\n`-terminated line into `buf` (cleared first; the
/// terminator and trailing whitespace are stripped), never holding
/// more than [`MAX_LINE_BYTES`] of it. A final unterminated line
/// counts as a line.
///
/// # Errors
///
/// The reader's error, including the `WouldBlock`/`TimedOut` of a
/// socket read timeout.
pub fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    buf.clear();
    let (mut seen, mut too_long) = (false, false);
    loop {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        seen = true;
        let end = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..end.unwrap_or(chunk.len())];
        if buf.len() + body.len() > MAX_LINE_BYTES {
            too_long = true;
        } else if !too_long {
            buf.extend_from_slice(body);
        }
        let used = end.map_or(chunk.len(), |e| e + 1);
        r.consume(used);
        if end.is_some() {
            break;
        }
    }
    while buf.last().is_some_and(u8::is_ascii_whitespace) {
        buf.pop();
    }
    Ok(match (seen, too_long) {
        (false, _) => LineRead::Eof,
        (true, false) => LineRead::Line,
        (true, true) => LineRead::TooLong,
    })
}

// ---- client half: not embedded ----
//
// Rendering commands, parsing replies, and the checks only a service
// and its clients make. Emitted simulators are servers; the emitter
// (`gsim_codegen`'s `rust::embed`) stops at the marker line above, so
// they do not pay to compile this half.

/// Checks an announced `design` / `explore` payload size, on either
/// end of the connection.
///
/// # Errors
///
/// [`WireError`] (answered immediately) over [`MAX_UPLOAD_BYTES`].
pub fn check_upload(nbytes: usize) -> Result<usize, WireError> {
    if nbytes > MAX_UPLOAD_BYTES {
        return Err(WireError {
            msg: format!("upload of {nbytes} bytes exceeds the {MAX_UPLOAD_BYTES}-byte limit"),
            query: true,
        });
    }
    Ok(nbytes)
}

impl Command<'_> {
    /// `true` for the commands that answer exactly one response
    /// (`list`: three lines) and queue nothing.
    pub fn is_query(&self) -> bool {
        matches!(
            self,
            Command::Peek(_)
                | Command::Counters
                | Command::List
                | Command::Snapshot
                | Command::State
        )
    }
}

/// Renders the request line, without a terminator.
impl fmt::Display for Command<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::Poke { name, hex } => write!(f, "poke {name} {hex}"),
            Command::Step(n) => write!(f, "step {n}"),
            Command::Load { mem, image } => {
                write!(f, "load {mem}")?;
                image.iter().try_for_each(|w| write!(f, " {w:x}"))
            }
            Command::Peek(name) => write!(f, "peek {name}"),
            Command::Counters => f.write_str("counters"),
            Command::List => f.write_str("list"),
            Command::Snapshot => f.write_str("snapshot"),
            Command::Restore(id) => write!(f, "restore {id}"),
            Command::State => f.write_str("state"),
            Command::LoadState(blob) => write!(f, "loadstate {blob}"),
            Command::TraceOn(names) => {
                f.write_str("trace on")?;
                names.iter().try_for_each(|n| write!(f, " {n}"))
            }
            Command::TraceOff => f.write_str("trace off"),
            Command::Sync => f.write_str("sync"),
            Command::Exit => f.write_str("exit"),
        }
    }
}

impl<'a> Reply<'a> {
    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`WireError`] for a line that is not a well-formed reply.
    pub fn parse(line: &'a str) -> Result<Reply<'a>, WireError> {
        Self::parse_opt(line)
            .ok_or_else(|| WireError::new(format!("bad response {:?}", clip(line))))
    }

    fn parse_opt(line: &'a str) -> Option<Reply<'a>> {
        fn num<T: std::str::FromStr>(tok: Option<&str>) -> Option<T> {
            tok?.parse().ok()
        }
        fn signals(it: std::str::SplitWhitespace<'_>) -> Option<Vec<(&str, u32)>> {
            it.map(|tok| {
                let (name, width) = tok.rsplit_once(':')?;
                Some((name, width.parse().ok()?))
            })
            .collect()
        }
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut it = rest.split_whitespace();
        Some(match verb {
            "val" => Reply::Val {
                width: num(it.next())?,
                hex: it.next()?,
            },
            "counters" => Reply::Counters([
                num(it.next())?,
                num(it.next())?,
                num(it.next())?,
                num(it.next())?,
            ]),
            "snap" => Reply::Snap(num(it.next())?),
            "state" => Reply::State {
                cycle: num(it.next())?,
                blob: it.next()?,
            },
            "ok" => Reply::Ok(num(it.next())?),
            "err" => Reply::Err(rest.trim()),
            "chg" => Reply::Chg {
                cycle: num(it.next())?,
                name: it.next()?,
                hex: it.next()?,
            },
            "inputs" => Reply::Inputs(signals(it)?),
            "signals" => Reply::Signals(signals(it)?),
            "mems" => Reply::Mems(
                it.map(|tok| {
                    let mut f = tok.rsplitn(3, ':');
                    let (width, depth) = (num(f.next())?, num(f.next())?);
                    Some((f.next()?, depth, width))
                })
                .collect::<Option<_>>()?,
            ),
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests;
