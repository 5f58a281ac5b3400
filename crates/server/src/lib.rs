//! The GSIM simulation service: many concurrent sessions, one
//! compiled artifact per distinct design.
//!
//! `gsim-server` turns the single-user Session API into a serving
//! system. A [`Server`] listens on a Unix or TCP socket
//! ([`Endpoint`]); each accepted connection gets its own thread (no
//! external async runtime exists in this environment — thread-per-
//! connection with per-session read timeouts is the whole scheduling
//! story) and speaks the line protocol documented on
//! [`gsim_sim::Session`], extended with three service commands:
//!
//! * `design <nbytes> [aot|interp|jit]` — the next `nbytes` bytes are
//!   FIRRTL source; the server compiles it (through the
//!   [`gsim_codegen::ArtifactCache`] for the AoT backend, so `rustc`
//!   runs once per distinct design, not once per client; `jit` is the
//!   in-process threaded-code backend, no `rustc` involved) and binds
//!   the session to it. Response:
//!   `ready <key> <hit|miss|interp|jit|fallback> <ms>` — `fallback`
//!   means an `aot` request whose compile failed was degraded to the
//!   in-process `jit` backend instead of being refused.
//! * `stats` — service counters:
//!   `stats sessions <n> active <n> hits <n> misses <n> compiles <n>
//!   evictions <n> panics <n> fallbacks <n>`.
//! * `shutdown` — stops the whole server (test/admin facility).
//!
//! Fault tolerance: every session thread runs inside a
//! `catch_unwind` boundary (a panicking session answers
//! `err backend …` and frees its pool slot; the server keeps
//! serving, counting the event in `stats … panics`), and AoT
//! sessions are wrapped in a [`gsim_sim::SupervisedSession`] whose
//! factory recompiles through the artifact cache — a dead child
//! process is respawned (even past an eviction) and replayed to the
//! exact pre-crash state.
//!
//! After `design`, every simulation command (`poke`, `step`, `peek`,
//! `list`, `sync`, `trace on|off`, …) behaves exactly as on a local
//! session: the server bridges the wire onto a `Box<dyn Session>`
//! ([`proto`]), so the AoT and interpreter backends are served by the
//! same loop — including streamed waveform capture: `trace on`
//! subscribes the connection to unsolicited `chg <cycle> <name>
//! <hex>` value-change records (see [`gsim_sim::Session`]'s wire
//! table), which [`ClientSession`] (via
//! [`gsim_sim::Session::trace_start`]) reassembles into any
//! [`gsim_wave::WaveSink`].
//!
//! The matching [`ClientSession`] implements [`gsim_sim::Session`]
//! over the socket, which is what makes the service transparently
//! testable: the existing differential harnesses drive a remote
//! session exactly like an in-process engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
pub mod proto;

mod client;
mod server;

pub use client::{ClientSession, DesignInfo, SocketTransport};
pub use net::Endpoint;
pub use server::{Server, ServerConfig, ServiceStats};
