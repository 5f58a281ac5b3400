//! IEEE-1364 VCD writing and parsing, plus the in-memory [`Wave`]
//! model both sides share.
//!
//! The emitted subset is deliberately small and deterministic — one
//! `$scope module <top>`, `wire` vars only, two-state values — so
//! that two VCDs produced from the same change stream are
//! byte-identical regardless of which backend produced them. The
//! parser accepts exactly that subset (four-state `x`/`z` values are
//! reported as errors: no GSIM backend produces them, and silently
//! mapping them would defeat `wavediff`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::sink::WaveSink;
pub(crate) use crate::vcd_writer::limbs;
#[cfg(test)]
use crate::vcd_writer::words_to_bin;
pub use crate::vcd_writer::{id_code, VcdWriter};

/// One traced signal: its dotted name and bit width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveSignal {
    /// Signal name as the Session API reports it (e.g. `io_out`).
    pub name: String,
    /// Width in bits. Zero-width signals cannot appear in a VCD; the
    /// capture layer excludes them before a sink ever sees a header.
    pub width: u32,
}

impl WaveSignal {
    /// Convenience constructor.
    pub fn new(name: &str, width: u32) -> WaveSignal {
        WaveSignal {
            name: name.to_string(),
            width,
        }
    }
}

/// An in-memory waveform: a signal table plus a flat, time-ordered
/// change list (including the initial `$dumpvars` snapshot, recorded
/// as a change for every signal at the baseline time).
///
/// Values are little-endian 64-bit limbs, exactly as the simulator
/// stores them, masked to the signal width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wave {
    /// Name of the single `$scope module` the signals live in.
    pub top: String,
    /// The signal table; change records index into it.
    pub signals: Vec<WaveSignal>,
    /// `(time, signal index, value)` records in emission order.
    pub changes: Vec<(u64, usize, Vec<u64>)>,
}

impl Wave {
    /// The canonical per-signal change sequence: for each signal, its
    /// `(time, value)` records in time order, keeping only the *last*
    /// record at any given time and dropping records that repeat the
    /// previous value. Two waves with equal signal tables and equal
    /// canonical sequences describe identical signal histories, even
    /// if one writer emitted redundant records.
    pub fn canonical(&self) -> Vec<Vec<(u64, Vec<u64>)>> {
        let mut per: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); self.signals.len()];
        for (t, s, v) in &self.changes {
            let seq = &mut per[*s];
            if let Some(last) = seq.last_mut() {
                if last.0 == *t {
                    // Later record at the same time wins.
                    last.1 = v.clone();
                    // It may now repeat the value before it.
                    let n = seq.len();
                    if n >= 2 && seq[n - 2].1 == seq[n - 1].1 {
                        seq.pop();
                    }
                    continue;
                }
                if last.1 == *v {
                    continue;
                }
            }
            seq.push((*t, v.clone()));
        }
        per
    }
}

/// Masks `words` in place to `width` bits.
pub(crate) fn mask_words(words: &mut [u64], width: u32) {
    let full = (width as usize) / 64;
    let rem = width % 64;
    for (i, w) in words.iter_mut().enumerate() {
        if i < full {
            continue;
        }
        if i == full && rem != 0 {
            *w &= (1u64 << rem) - 1;
        } else {
            *w = 0;
        }
    }
}

/// Renders limbs as lowercase hex with no leading zeros (`"0"` for
/// zero) — the same convention the wire protocol and the AoT runtime
/// use, so `chg` records and `peek` replies compare as exact strings.
pub fn words_to_hex(words: &[u64], width: u32) -> String {
    let n = limbs(width).min(words.len().max(1));
    let mut s = String::new();
    let mut leading = true;
    for i in (0..n).rev() {
        let w = words.get(i).copied().unwrap_or(0);
        if leading {
            if w == 0 && i != 0 {
                continue;
            }
            let _ = write!(s, "{w:x}");
            leading = false;
        } else {
            let _ = write!(s, "{w:016x}");
        }
    }
    if s.is_empty() {
        s.push('0');
    }
    s
}

/// Parses lowercase/uppercase hex into limbs masked to `width`;
/// `None` on empty input, non-hex digits, or a value that does not
/// fit the signal width.
pub fn hex_to_words(s: &str, width: u32) -> Option<Vec<u64>> {
    if s.is_empty() {
        return None;
    }
    let n = limbs(width);
    let mut words = vec![0u64; n];
    for c in s.chars() {
        let d = c.to_digit(16)? as u64;
        // Shift the whole value left by 4 and or in the digit.
        let mut carry = d;
        for w in words.iter_mut() {
            let out = *w >> 60;
            *w = (*w << 4) | carry;
            carry = out;
        }
        if carry != 0 {
            return None;
        }
    }
    let mut check = words.clone();
    mask_words(&mut check, width);
    if check != words {
        return None;
    }
    Some(words)
}

/// Parses a VCD `b` record's binary digits into limbs; `None` on
/// empty input, non-binary digits, or overflow past `width`.
fn bin_to_words(s: &str, width: u32) -> Option<Vec<u64>> {
    if s.is_empty() {
        return None;
    }
    let n = limbs(width);
    let mut words = vec![0u64; n];
    for c in s.chars() {
        let d = match c {
            '0' => 0u64,
            '1' => 1u64,
            _ => return None,
        };
        let mut carry = d;
        for w in words.iter_mut() {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        if carry != 0 {
            return None;
        }
    }
    let mut check = words.clone();
    mask_words(&mut check, width);
    if check != words {
        return None;
    }
    Some(words)
}

impl<W: Write + Send> WaveSink for VcdWriter<W> {
    fn start(&mut self, top: &str, signals: &[WaveSignal]) -> io::Result<()> {
        let signals: Vec<(&str, u32)> =
            signals.iter().map(|s| (s.name.as_str(), s.width)).collect();
        self.header(top, &signals)
    }

    fn dumpvars(&mut self, time: u64, values: &[Vec<u64>]) -> io::Result<()> {
        VcdWriter::dumpvars(self, time, values)
    }

    fn change(&mut self, time: u64, signal: usize, words: &[u64]) -> io::Result<()> {
        VcdWriter::change(self, time, signal, words)
    }

    fn finish(&mut self) -> io::Result<()> {
        VcdWriter::finish(self)
    }
}

/// Parses VCD text (the subset [`VcdWriter`] emits, which is also
/// the common two-state subset other tools produce) into a [`Wave`].
///
/// # Errors
///
/// A human-readable message naming the offending token for anything
/// outside the supported subset — unknown declarations are skipped if
/// they are well-formed `$...$end` blocks, but four-state values
/// (`x`/`z`), `real` values, undeclared id codes, and truncated
/// constructs are errors.
pub fn parse_vcd(text: &str) -> Result<Wave, String> {
    let mut toks = text.split_whitespace();
    let mut wave = Wave::default();
    let mut by_id: HashMap<String, usize> = HashMap::new();
    let mut scope_depth = 0usize;

    // Declaration section, up to $enddefinitions.
    loop {
        let tok = toks
            .next()
            .ok_or_else(|| "unexpected end of VCD in declarations".to_string())?;
        match tok {
            "$enddefinitions" => {
                expect_end(&mut toks, "$enddefinitions")?;
                break;
            }
            "$scope" => {
                let kind = toks.next().ok_or("truncated $scope")?;
                let name = toks.next().ok_or("truncated $scope")?;
                expect_end(&mut toks, "$scope")?;
                if kind == "module" && scope_depth == 0 {
                    wave.top = name.to_string();
                }
                scope_depth += 1;
            }
            "$upscope" => {
                expect_end(&mut toks, "$upscope")?;
                scope_depth = scope_depth.saturating_sub(1);
            }
            "$var" => {
                let _kind = toks.next().ok_or("truncated $var")?;
                let width: u32 = toks
                    .next()
                    .ok_or("truncated $var")?
                    .parse()
                    .map_err(|_| "bad $var width".to_string())?;
                if width == 0 {
                    return Err("zero-width $var is not representable".to_string());
                }
                let id = toks.next().ok_or("truncated $var")?.to_string();
                let name = toks.next().ok_or("truncated $var")?.to_string();
                // Optional bit-range token (`[7:0]`) before $end.
                loop {
                    let t = toks.next().ok_or("truncated $var")?;
                    if t == "$end" {
                        break;
                    }
                    if !t.starts_with('[') {
                        return Err(format!("malformed $var near {id:?}"));
                    }
                }
                by_id.insert(id, wave.signals.len());
                wave.signals.push(WaveSignal { name, width });
            }
            t if t.starts_with('$') => {
                // $timescale, $date, $version, $comment, ...: skip to $end.
                skip_to_end(&mut toks, t)?;
            }
            t => return Err(format!("unexpected token {t:?} in declarations")),
        }
    }

    // Value-change section.
    let mut time = 0u64;
    while let Some(tok) = toks.next() {
        if let Some(t) = tok.strip_prefix('#') {
            time = t.parse().map_err(|_| format!("bad timestamp {tok:?}"))?;
        } else if tok == "$dumpvars" || tok == "$end" {
            // The baseline block's values are ordinary value tokens;
            // the wrapping keywords carry no information.
        } else if tok.starts_with('$') {
            skip_to_end(&mut toks, tok)?;
        } else if let Some(rest) = tok.strip_prefix('b') {
            let id = toks
                .next()
                .ok_or_else(|| format!("vector value {tok:?} missing id code"))?;
            let idx = *by_id
                .get(id)
                .ok_or_else(|| format!("undeclared id code {id:?}"))?;
            let words = bin_to_words(rest, wave.signals[idx].width).ok_or_else(|| {
                format!("bad vector value {tok:?} for {:?}", wave.signals[idx].name)
            })?;
            wave.changes.push((time, idx, words));
        } else {
            let mut chars = tok.chars();
            let v = chars.next().expect("split_whitespace yields non-empty");
            let id: String = chars.collect();
            let bit = match v {
                '0' => 0u64,
                '1' => 1u64,
                'x' | 'X' | 'z' | 'Z' => {
                    return Err(format!(
                        "four-state value {tok:?} is not supported (two-state VCDs only)"
                    ))
                }
                _ => return Err(format!("unexpected token {tok:?} in value changes")),
            };
            let idx = *by_id
                .get(id.as_str())
                .ok_or_else(|| format!("undeclared id code {id:?}"))?;
            wave.changes.push((time, idx, vec![bit]));
        }
    }
    Ok(wave)
}

fn expect_end<'a>(toks: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<(), String> {
    match toks.next() {
        Some("$end") => Ok(()),
        _ => Err(format!("{what} not terminated by $end")),
    }
}

fn skip_to_end<'a>(toks: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<(), String> {
    for t in toks.by_ref() {
        if t == "$end" {
            return Ok(());
        }
    }
    Err(format!("{what} not terminated by $end"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_codes_are_bijective_base94() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
        assert_eq!(id_code(94 + 93), "!~");
        assert_eq!(id_code(94 + 94), "\"!");
        // Distinctness over a healthy range.
        let mut seen = std::collections::HashSet::new();
        for n in 0..10_000 {
            assert!(seen.insert(id_code(n)), "collision at {n}");
        }
    }

    #[test]
    fn hex_round_trips_and_masks() {
        assert_eq!(words_to_hex(&[0], 8), "0");
        assert_eq!(words_to_hex(&[0xff], 8), "ff");
        assert_eq!(words_to_hex(&[0, 1], 128), "10000000000000000");
        assert_eq!(hex_to_words("10000000000000000", 128), Some(vec![0, 1]));
        assert_eq!(hex_to_words("ff", 8), Some(vec![0xff]));
        assert_eq!(hex_to_words("1ff", 8), None, "overflow past width");
        assert_eq!(hex_to_words("", 8), None);
        assert_eq!(hex_to_words("zz", 8), None);
        for w in [1u32, 7, 64, 65, 128, 130] {
            let mut words = vec![0xdead_beef_cafe_f00d; limbs(w)];
            mask_words(&mut words, w);
            let hex = words_to_hex(&words, w);
            assert_eq!(hex_to_words(&hex, w), Some(words), "width {w}");
        }
    }

    #[test]
    fn binary_round_trips() {
        assert_eq!(words_to_bin(&[0, 0, 0], 130), "0");
        assert_eq!(words_to_bin(&[5], 4), "101");
        assert_eq!(bin_to_words("101", 4), Some(vec![5]));
        assert_eq!(bin_to_words("100000000", 8), None, "overflow");
        let v = vec![u64::MAX, 0x3];
        assert_eq!(bin_to_words(&words_to_bin(&v, 66), 66), Some(v));
    }

    /// Golden byte-for-byte emission for a fixed design and stimulus,
    /// including a wide (>128-bit) signal. This pins the exact output
    /// format: any change to header layout, id assignment, timestamp
    /// placement, or value rendering fails here first.
    #[test]
    fn golden_vcd_emission() {
        let signals = vec![
            WaveSignal::new("clk_en", 1),
            WaveSignal::new("io_out", 8),
            WaveSignal::new("io_wide", 130),
        ];
        let mut w = VcdWriter::new(Vec::new());
        w.start("top", &signals).unwrap();
        w.dumpvars(0, &[vec![0], vec![0], vec![0, 0, 0]]).unwrap();
        w.change(1, 0, &[1]).unwrap();
        w.change(1, 1, &[0x2a]).unwrap();
        w.change(3, 2, &[0x1, 0x0, 0x2]).unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let expected = "\
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk_en $end
$var wire 8 \" io_out $end
$var wire 130 # io_wide $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
0!
b0 \"
b0 #
$end
#1
1!
b101010 \"
#3
b1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001 #
";
        assert_eq!(text, expected);
    }

    #[test]
    fn parser_inverts_writer() {
        let signals = vec![
            WaveSignal::new("a", 1),
            WaveSignal::new("b", 64),
            WaveSignal::new("c", 190),
        ];
        let mut w = VcdWriter::new(Vec::new());
        w.start("top", &signals).unwrap();
        w.dumpvars(5, &[vec![1], vec![0xdead], vec![1, 2, 3]])
            .unwrap();
        w.change(6, 0, &[0]).unwrap();
        w.change(6, 2, &[0, 0, 0]).unwrap();
        w.change(9, 1, &[u64::MAX]).unwrap();
        let text = String::from_utf8(w.into_inner()).unwrap();
        let wave = parse_vcd(&text).unwrap();
        assert_eq!(wave.top, "top");
        assert_eq!(wave.signals, signals);
        assert_eq!(
            wave.changes,
            vec![
                (5, 0, vec![1]),
                (5, 1, vec![0xdead]),
                (5, 2, vec![1, 2, 3]),
                (6, 0, vec![0]),
                (6, 2, vec![0, 0, 0]),
                (9, 1, vec![u64::MAX]),
            ]
        );
    }

    #[test]
    fn parser_tolerates_headers_and_rejects_four_state() {
        let text = "\
$date today $end
$version hand-written $end
$comment multi token comment $end
$timescale 1ns $end
$scope module dut $end
$var wire 4 ! bus [3:0] $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
b1010 !
$end
";
        let wave = parse_vcd(text).unwrap();
        assert_eq!(wave.top, "dut");
        assert_eq!(wave.signals, vec![WaveSignal::new("bus", 4)]);
        assert_eq!(wave.changes, vec![(0, 0, vec![0xa])]);

        let bad = text.replace("b1010 !", "bx010 !");
        assert!(parse_vcd(&bad).is_err());
        let bad = "$enddefinitions $end\n#0\nx!\n";
        assert!(parse_vcd(bad).unwrap_err().contains("four-state"));
        assert!(parse_vcd("$scope module top $end").is_err());
    }

    #[test]
    fn canonical_dedupes_and_takes_last_at_time() {
        let wave = Wave {
            top: "top".into(),
            signals: vec![WaveSignal::new("a", 8), WaveSignal::new("b", 8)],
            changes: vec![
                (0, 0, vec![1]),
                (0, 0, vec![2]), // same time: last wins
                (1, 0, vec![2]), // repeats previous value: dropped
                (2, 0, vec![3]),
                (0, 1, vec![9]),
                (2, 1, vec![9]), // repeat: dropped
            ],
        };
        assert_eq!(
            wave.canonical(),
            vec![vec![(0, vec![2]), (2, vec![3])], vec![(0, vec![9])],]
        );
        // Same-time overwrite back to the prior value collapses fully.
        let wave2 = Wave {
            top: "top".into(),
            signals: vec![WaveSignal::new("a", 8)],
            changes: vec![(0, 0, vec![1]), (2, 0, vec![5]), (2, 0, vec![1])],
        };
        assert_eq!(wave2.canonical(), vec![vec![(0, vec![1])]]);
    }
}
