//! The VCD writer core: identifier codes, binary value rendering, and
//! the header / timestamp / change records.
//!
//! This file depends on nothing but `std`. It is compiled as part of
//! `gsim_wave` (where [`VcdWriter`] also implements `WaveSink`, in
//! `vcd.rs`) and the AoT emitter `include_str!`s it into every emitted
//! simulator, so the binary's `--vcd` output comes from this writer.

use std::fmt::Write as _;
use std::io::{self, Write};

/// Number of 64-bit limbs needed for `width` bits (at least one, so
/// even a 1-bit signal carries a limb).
pub(crate) fn limbs(width: u32) -> usize {
    (width as usize).div_ceil(64).max(1)
}

/// The short printable identifier code VCD assigns to signal `n`:
/// bijective base-94 over the printable ASCII range `!`..`~`, so
/// signal 0 is `!`, 93 is `~`, 94 is `!!`, matching common tooling.
pub fn id_code(mut n: usize) -> String {
    let mut buf = Vec::new();
    loop {
        buf.push(b'!' + (n % 94) as u8);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    buf.reverse();
    String::from_utf8(buf).expect("printable ASCII")
}

/// Renders limbs as binary with no leading zeros (`"0"` for zero),
/// the vector-value format VCD `b` records use.
pub(crate) fn words_to_bin(words: &[u64], width: u32) -> String {
    let n = limbs(width).min(words.len().max(1));
    let mut s = String::new();
    for i in (0..n).rev() {
        let w = words.get(i).copied().unwrap_or(0);
        if s.is_empty() {
            if w == 0 && i != 0 {
                continue;
            }
            let _ = write!(s, "{w:b}");
        } else {
            let _ = write!(s, "{w:064b}");
        }
    }
    s
}

/// A streaming IEEE-1364 VCD writer.
///
/// Emission is deterministic: a fixed header (`$timescale 1ns`), one
/// `$scope module <top>`, ids assigned by signal index via
/// [`id_code`], a `#<time>`-stamped `$dumpvars` baseline, and change
/// records that only advance `#<time>` when time actually moves.
/// Scalar (1-bit) signals use `0<id>`/`1<id>`; wider signals use
/// `b<binary> <id>` with no leading zeros.
pub struct VcdWriter<W: Write> {
    out: W,
    widths: Vec<u32>,
    ids: Vec<String>,
    cur_time: Option<u64>,
}

impl<W: Write> VcdWriter<W> {
    /// Wraps `out`; nothing is written until [`VcdWriter::header`].
    pub fn new(out: W) -> VcdWriter<W> {
        VcdWriter {
            out,
            widths: Vec::new(),
            ids: Vec::new(),
            cur_time: None,
        }
    }

    /// Consumes the writer, returning the underlying output.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Writes the declaration section for `(name, width)` signals
    /// under one module scope. Zero-width signals must be excluded by
    /// the caller.
    ///
    /// # Errors
    ///
    /// The output's write error.
    pub fn header(&mut self, top: &str, signals: &[(&str, u32)]) -> io::Result<()> {
        self.widths = signals.iter().map(|&(_, w)| w).collect();
        self.ids = (0..signals.len()).map(id_code).collect();
        writeln!(self.out, "$timescale 1ns $end")?;
        writeln!(self.out, "$scope module {top} $end")?;
        for (&(name, width), id) in signals.iter().zip(&self.ids) {
            writeln!(self.out, "$var wire {width} {id} {name} $end")?;
        }
        writeln!(self.out, "$upscope $end")?;
        writeln!(self.out, "$enddefinitions $end")
    }

    fn stamp(&mut self, time: u64) -> io::Result<()> {
        if self.cur_time != Some(time) {
            writeln!(self.out, "#{time}")?;
            self.cur_time = Some(time);
        }
        Ok(())
    }

    fn value(&mut self, signal: usize, words: &[u64]) -> io::Result<()> {
        let (width, id) = (self.widths[signal], &self.ids[signal]);
        if width == 1 {
            let bit = words.first().copied().unwrap_or(0) & 1;
            writeln!(self.out, "{bit}{id}")
        } else {
            writeln!(self.out, "b{} {id}", words_to_bin(words, width))
        }
    }

    /// Writes the `$dumpvars` baseline: every signal's value at `time`.
    ///
    /// # Errors
    ///
    /// The output's write error.
    pub fn dumpvars(&mut self, time: u64, values: &[Vec<u64>]) -> io::Result<()> {
        self.stamp(time)?;
        writeln!(self.out, "$dumpvars")?;
        for (i, v) in values.iter().enumerate() {
            self.value(i, v)?;
        }
        writeln!(self.out, "$end")
    }

    /// Records one value change at `time` (times must be monotonic).
    ///
    /// # Errors
    ///
    /// The output's write error.
    pub fn change(&mut self, time: u64, signal: usize, words: &[u64]) -> io::Result<()> {
        self.stamp(time)?;
        self.value(signal, words)
    }

    /// Flushes the output.
    ///
    /// # Errors
    ///
    /// The output's flush error.
    pub fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}
