//! Waveform capture, exchange, and comparison for the GSIM stack.
//!
//! Every execution backend in this workspace already *detects* value
//! changes — the interpreter's change-detected stores, the threaded
//! backend's epilogues, and the AoT emitter's compiled compare-and-
//! store all count `value_changes`. This crate turns that machinery
//! into a first-class artifact: per-signal value-change streams that
//! can be written as IEEE-1364 VCD, streamed over the session wire
//! protocol, captured in memory, and diffed across backends.
//!
//! The crate is dependency-free (std only) so every layer of the
//! workspace — including the benchmark harness and the emitted AoT
//! binaries' driver code — can speak waveforms without cycles in the
//! crate graph. The pieces:
//!
//! * [`WaveSignal`] / [`WaveSink`] — the capture interface: a header
//!   ([`WaveSink::start`]), one baseline snapshot
//!   ([`WaveSink::dumpvars`]), then change records
//!   ([`WaveSink::change`]). Sinks are where captured changes *go*:
//!   a VCD file ([`VcdWriter`]), an in-memory [`Wave`] ([`MemSink`]),
//!   or `chg` lines on a wire ([`LineSink`]).
//! * [`Tracer`] — the backend-agnostic capture layer: it owns a
//!   shadow copy of every traced signal and emits a change record
//!   exactly when a post-cycle value differs from the shadow, so any
//!   backend that can *read* its signals can produce a bit-identical
//!   change stream, regardless of how its internal change detection
//!   is organized. Zero-width signals are excluded at construction
//!   (VCD cannot represent them, and no backend stores them).
//! * [`Wave`] / [`parse_vcd`] / [`diff`] — the comparison side:
//!   parse a VCD back into change lists, canonicalize (initial values
//!   and deduplicated per-signal change sequences), and report typed
//!   differences. `gsim wavediff` and the cross-backend CI matrix are
//!   built on [`diff`]; the exploration engine's first-differing-
//!   change divergence uses [`first_difference`].
//! * [`ChgRouter`] — the client side of the wire protocol's
//!   `chg <cycle> <name> <hex>` records: routes streamed lines into
//!   any [`WaveSink`], reconstructing the baseline `$dumpvars` block
//!   from the initial burst the server sends at `trace on`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod sink;
mod tracer;
mod vcd;
mod vcd_writer;

pub use diff::{diff, first_difference, WaveDiff};
pub use sink::{ChgRouter, CountingWriter, LineSink, MemSink, SharedBuf, WaveCell, WaveSink};
pub use tracer::Tracer;
pub use vcd::{hex_to_words, id_code, parse_vcd, words_to_hex, VcdWriter, Wave, WaveSignal};
