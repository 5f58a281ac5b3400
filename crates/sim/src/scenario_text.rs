//! The [`Scenario`] value and its text format.
//!
//! ```text
//! # comment
//! !load imem 13 00000513
//! rst=1 in0=ff
//! rst=0
//! ```
//!
//! `#` lines are comments; `!load <mem> <hex>...` loads one `u64`
//! image word per token starting at address 0; every other line
//! (including an empty one) is one cycle's frame of `name=hex` pokes.
//!
//! This file depends on nothing but `std` and its sibling `wire`: the
//! AoT emitter `include_str!`s it into every emitted simulator, so the
//! binary's `--stimulus` reader *is* this parser.

use super::wire::parse_hex64;
use std::fmt::Write as _;

/// A complete, backend-independent stimulus description: memory
/// images plus timed input frames.
///
/// Cycles beyond the last frame run with inputs held at their final
/// values (every backend implements hold semantics identically), so a
/// scenario that drives `k` frames can still be run for `n > k`
/// cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scenario {
    /// Memory images applied before cycle 0 (one `u64` per entry,
    /// entry `i` at address `i`).
    pub loads: Vec<(String, Vec<u64>)>,
    /// Per-cycle input pokes, frame `c` driven before cycle `c`.
    /// Values are masked to the input's declared width by the backend.
    pub frames: Vec<Vec<(String, u64)>>,
}

impl Scenario {
    /// Renders the scenario into the stimulus text format.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (mem, image) in &self.loads {
            let _ = write!(s, "!load {mem}");
            for w in image {
                let _ = write!(s, " {w:x}");
            }
            s.push('\n');
        }
        for frame in &self.frames {
            for (i, (name, v)) in frame.iter().enumerate() {
                let _ = write!(s, "{}{name}={v:x}", if i > 0 { " " } else { "" });
            }
            s.push('\n');
        }
        s
    }

    /// Parses the stimulus text format; comments are dropped.
    ///
    /// # Errors
    ///
    /// A line-numbered message for bad hex, a missing `!load` memory
    /// name, a token without `=`, or a value wider than 64 bits.
    pub fn parse_text(text: &str) -> Result<Scenario, String> {
        let mut sc = Scenario::default();
        for (ln, line) in text.lines().enumerate() {
            let ln = ln + 1;
            let line = line.trim();
            if line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            if it.clone().next() == Some("!load") {
                it.next();
                let mem = it
                    .next()
                    .ok_or_else(|| format!("line {ln}: !load needs a memory name"))?;
                let mut image = Vec::new();
                for tok in it {
                    image.push(parse_hex64(tok).ok_or_else(|| {
                        format!("line {ln}: bad or oversized image word {tok:?}")
                    })?);
                }
                sc.loads.push((mem.to_string(), image));
                continue;
            }
            let mut frame = Vec::new();
            for tok in it {
                let (name, val) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("line {ln}: expected name=hex, got {tok:?}"))?;
                let v = parse_hex64(val)
                    .ok_or_else(|| format!("line {ln}: bad or oversized value {val:?}"))?;
                frame.push((name.to_string(), v));
            }
            sc.frames.push(frame);
        }
        Ok(sc)
    }
}
