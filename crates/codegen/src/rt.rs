// AoT simulator runtime: what the emitted program needs and no other
// workspace file provides.
//
// This file is compiled twice:
//
// 1. as a private module of `gsim_codegen`, where its semantics are
//    pinned against `gsim_value::ops` by the `rt_semantics` tests, and
// 2. verbatim (via `include_str!`) as `mod rt` inside every Rust
//    simulator the AoT backend emits.
//
// The emitted program is standalone — it depends on nothing but `std` —
// so everything else it needs is embedded from the workspace file that
// owns it, next to this module (see `rust.rs::embed`):
//
// * `crates/value/src/words.rs` as `mod words` — the word kernels the
//   interpreter engines run on; the wide ops below are built from them,
// * `crates/sim/src/wire.rs` as `mod wire` — the protocol grammar the
//   `--serve` loop dispatches on, and hex parsing,
// * `crates/sim/src/scenario_text.rs` as `mod scenario_text` — the
//   `--stimulus` reader,
// * `crates/wave/src/vcd_writer.rs` as `mod vcd_writer` — `--vcd`.
//
// What stays here has no twin in the workspace: the `u128` fast-path
// tier (the interpreter has no such tier), the FIRRTL op semantics over
// explicit-width word slices (`gsim_value::ops` implements them over
// the allocating `Value`; the `rt_semantics` proptests hold the two
// equal — that is the reference comparison, not a duplicate), hex
// rendering of word slices, and the state-blob codec.
//
// All slice values are *canonical*: little-endian words with every bit
// at position `>= width` zero.

use super::words;
use std::cmp::Ordering;

/// Scratch capacity in words; bounds the widest supported signal
/// (64 × 64 = 4096 bits). The emitter rejects wider designs.
pub const SCRATCH_WORDS: usize = 64;

/// Words needed to store `w` bits.
pub const fn words_for(w: u32) -> usize {
    w.div_ceil(64) as usize
}

// ------------------------------------------------------------ u128 tier

/// Masks `x` to its low `w` bits (`w >= 128` is the identity).
#[inline]
pub fn mask128(x: u128, w: u32) -> u128 {
    if w >= 128 {
        x
    } else if w == 0 {
        0
    } else {
        x & ((1u128 << w) - 1)
    }
}

/// Sign-extends a canonical `w`-bit value to a full `i128`.
#[inline]
pub fn sx128(x: u128, w: u32) -> i128 {
    if w == 0 {
        return 0;
    }
    if w >= 128 {
        return x as i128;
    }
    let sh = 128 - w;
    ((x << sh) as i128) >> sh
}

/// The value as `u64`, saturating to `u64::MAX` when it does not fit
/// (the reference interpreter's `to_u64().unwrap_or(u64::MAX)` idiom
/// for memory addresses and shift amounts).
#[inline]
pub fn sat64_128(x: u128) -> u64 {
    if x > u64::MAX as u128 {
        u64::MAX
    } else {
        x as u64
    }
}

// ------------------------------------------------------- word helpers

/// Extends `src` (canonical at `src_w`) into `dst`, sign- or
/// zero-extending per `signed`, canonical at `dst_w`.
pub fn ext(dst: &mut [u64], src: &[u64], src_w: u32, dst_w: u32, signed: bool) {
    if signed {
        words::sext_copy(dst, src, src_w, dst_w);
    } else {
        words::copy(dst, src);
        words::mask_in_place(dst, dst_w);
    }
}

/// Stores a canonical `u128` into a (long enough) word slice.
pub fn store128(dst: &mut [u64], x: u128) {
    dst[0] = x as u64;
    if dst.len() > 1 {
        dst[1] = (x >> 64) as u64;
        for w in &mut dst[2..] {
            *w = 0;
        }
    }
}

/// Reads the low 128 bits of a slice (caller guarantees the value is
/// canonical within 128 bits).
pub fn to_u128(a: &[u64]) -> u128 {
    let lo = a.first().copied().unwrap_or(0) as u128;
    let hi = a.get(1).copied().unwrap_or(0) as u128;
    lo | hi << 64
}

/// The value as `u64`, saturating when any higher word is set.
pub fn sat64(a: &[u64]) -> u64 {
    if a.len() > 1 && a[1..].iter().any(|&w| w != 0) {
        u64::MAX
    } else {
        a.first().copied().unwrap_or(0)
    }
}

// -------------------------------------------------------- op semantics
//
// Each op takes canonical operands with explicit widths and produces a
// canonical result at the FIRRTL-mandated width `w` into `out`
// (`out.len() == words_for(w)`), mirroring `gsim_value::ops`.

/// Both `(words, width)` operands extended to the result width `w`,
/// combined by `kernel`, masked to `w`: the shape of
/// add/sub/mul/and/or/xor.
fn extended(
    out: &mut [u64],
    w: u32,
    (a, wa): (&[u64], u32),
    (b, wb): (&[u64], u32),
    signed: bool,
    kernel: fn(&mut [u64], &[u64], &[u64]),
) {
    let mut ea = [0u64; SCRATCH_WORDS];
    let mut eb = [0u64; SCRATCH_WORDS];
    let n = out.len();
    ext(&mut ea[..n], a, wa, w, signed);
    ext(&mut eb[..n], b, wb, w, signed);
    kernel(out, &ea[..n], &eb[..n]);
    words::mask_in_place(out, w);
}

/// FIRRTL `add` at `w = max(wa, wb) + 1`.
pub fn add(out: &mut [u64], w: u32, a: &[u64], wa: u32, b: &[u64], wb: u32, signed: bool) {
    extended(out, w, (a, wa), (b, wb), signed, |o, x, y| {
        words::add(o, x, y);
    });
}

/// FIRRTL `sub` at `w = max(wa, wb) + 1`.
pub fn sub(out: &mut [u64], w: u32, a: &[u64], wa: u32, b: &[u64], wb: u32, signed: bool) {
    extended(out, w, (a, wa), (b, wb), signed, |o, x, y| {
        words::sub(o, x, y);
    });
}

/// FIRRTL `mul` at `w = wa + wb`.
pub fn mul(out: &mut [u64], w: u32, a: &[u64], wa: u32, b: &[u64], wb: u32, signed: bool) {
    extended(out, w, (a, wa), (b, wb), signed, words::mul);
}

/// Magnitude of a canonical two's-complement value; returns the sign.
fn magnitude(dst: &mut [u64], a: &[u64], wa: u32, signed: bool) -> bool {
    let n = words_for(wa);
    if !signed || wa == 0 || !words::get_bit(a, wa - 1) {
        words::copy(dst, a);
        return false;
    }
    words::neg(&mut dst[..n], &a[..n]);
    words::mask_in_place(&mut dst[..n], wa);
    for w in &mut dst[n..] {
        *w = 0;
    }
    true
}

/// FIRRTL `div` at `w = wa + signed` (`x / 0 = 0`).
pub fn div(out: &mut [u64], w: u32, a: &[u64], wa: u32, b: &[u64], wb: u32, signed: bool) {
    let n = words_for(wa.max(wb)).max(1);
    let mut ma = [0u64; SCRATCH_WORDS];
    let mut mb = [0u64; SCRATCH_WORDS];
    let neg_a = magnitude(&mut ma[..n], a, wa, signed);
    let neg_b = magnitude(&mut mb[..n], b, wb, signed);
    let mut q = [0u64; SCRATCH_WORDS];
    let mut r = [0u64; SCRATCH_WORDS];
    words::udivrem(&mut q[..n], &mut r[..n], &ma[..n], &mb[..n]);
    words::mask_in_place(&mut q[..n], w.min(n as u32 * 64));
    words::copy(out, &q[..n]);
    words::mask_in_place(out, w);
    if signed && (neg_a ^ neg_b) && !words::is_zero(b) {
        let copy_out: [u64; SCRATCH_WORDS] = {
            let mut t = [0u64; SCRATCH_WORDS];
            t[..out.len()].copy_from_slice(out);
            t
        };
        words::neg(out, &copy_out[..out.len()]);
        words::mask_in_place(out, w);
    }
}

/// FIRRTL `rem` at `w = min(wa, wb)` (`x % 0 = x`, truncated).
pub fn rem(out: &mut [u64], w: u32, a: &[u64], wa: u32, b: &[u64], wb: u32, signed: bool) {
    let n = words_for(wa.max(wb)).max(1);
    let mut ma = [0u64; SCRATCH_WORDS];
    let mut mb = [0u64; SCRATCH_WORDS];
    let neg_a = magnitude(&mut ma[..n], a, wa, signed);
    magnitude(&mut mb[..n], b, wb, signed);
    let mut q = [0u64; SCRATCH_WORDS];
    let mut r = [0u64; SCRATCH_WORDS];
    words::udivrem(&mut q[..n], &mut r[..n], &ma[..n], &mb[..n]);
    if signed && neg_a && !words::is_zero(&r[..n]) {
        let rc = r;
        words::neg(&mut r[..n], &rc[..n]);
    }
    words::copy(out, &r[..n]);
    words::mask_in_place(out, w);
}

/// Three-way comparison at `max(wa, wb)` bits (shared by lt/leq/gt/geq/
/// eq/neq).
pub fn cmp(a: &[u64], wa: u32, b: &[u64], wb: u32, signed: bool) -> Ordering {
    let w = wa.max(wb).max(1);
    let n = words_for(w);
    let full = n as u32 * 64;
    let mut ea = [0u64; SCRATCH_WORDS];
    let mut eb = [0u64; SCRATCH_WORDS];
    ext(&mut ea[..n], a, wa, full, signed);
    ext(&mut eb[..n], b, wb, full, signed);
    if signed {
        words::scmp_extended(&ea[..n], &eb[..n])
    } else {
        words::ucmp(&ea[..n], &eb[..n])
    }
}

/// FIRRTL `and`/`or`/`xor` at `w = max(wa, wb)` (`which`: 0/1/2).
// Flat kernel ABI: emitted call sites pass each operand as an
// explicit (words, width) pair, which costs one parameter over the
// lint's limit.
#[allow(clippy::too_many_arguments)]
pub fn bitwise(
    out: &mut [u64],
    w: u32,
    a: &[u64],
    wa: u32,
    b: &[u64],
    wb: u32,
    signed: bool,
    which: u8,
) {
    let kernel = match which {
        0 => words::and,
        1 => words::or,
        _ => words::xor,
    };
    extended(out, w, (a, wa), (b, wb), signed, kernel);
}

/// FIRRTL `shl` by a constant: `w = wa + sh`.
pub fn shl(out: &mut [u64], w: u32, a: &[u64], sh: u32) {
    let mut ea = [0u64; SCRATCH_WORDS];
    let n = out.len();
    words::copy(&mut ea[..n], a);
    words::shl(out, &ea[..n], sh);
    words::mask_in_place(out, w);
}

/// FIRRTL `shr` by a constant: `w = max(wa - sh, 1)`, arithmetic for
/// signed operands.
pub fn shr(out: &mut [u64], w: u32, a: &[u64], wa: u32, sh: u32, signed: bool) {
    if sh >= wa {
        if signed && wa > 0 && words::get_bit(a, wa - 1) {
            out.fill(u64::MAX);
            words::mask_in_place(out, w);
        } else {
            out.fill(0);
        }
        return;
    }
    let n = words_for(wa);
    let mut t = [0u64; SCRATCH_WORDS];
    if signed {
        words::ashr(&mut t[..n], &a[..n], sh, wa);
    } else {
        words::lshr(&mut t[..n], &a[..n], sh);
    }
    words::copy(out, &t[..n]);
    words::mask_in_place(out, w);
}

/// FIRRTL `dshl`: dynamic left shift, `w = wa + 2^wb - 1`.
pub fn dshl(out: &mut [u64], w: u32, a: &[u64], b: &[u64]) {
    shl(out, w, a, sat64(b).min(w as u64) as u32);
}

/// FIRRTL `dshr`: dynamic right shift at width `wa`.
pub fn dshr(out: &mut [u64], a: &[u64], wa: u32, b: &[u64], signed: bool) {
    shr(out, wa, a, wa, sat64(b).min(wa as u64 + 1) as u32, signed);
}

/// FIRRTL `neg` at `w = wa + 1`.
pub fn neg(out: &mut [u64], w: u32, a: &[u64], wa: u32, signed: bool) {
    let mut ea = [0u64; SCRATCH_WORDS];
    let n = out.len();
    ext(&mut ea[..n], a, wa, w, signed);
    words::neg(out, &ea[..n]);
    words::mask_in_place(out, w);
}

/// Stores `data` (canonical words, zero-extended) into memory entry
/// words `[base, base + stride)`, masked to the entry width `w`.
pub fn store_entry(mem: &mut [u64], base: usize, stride: usize, data: &[u64], w: u32) {
    let entry = &mut mem[base..base + stride];
    words::copy(entry, data);
    words::mask_in_place(entry, w);
}

// ------------------------------------------------------------- text IO

/// Formats canonical words as lowercase hex without leading zeros
/// (matches the reference `Value`'s `{:x}` rendering).
pub fn to_hex(words: &[u64]) -> String {
    let mut s = String::new();
    let mut started = false;
    for i in (0..words.len()).rev() {
        if started {
            s.push_str(&format!("{:016x}", words[i]));
        } else if words[i] != 0 || i == 0 {
            s.push_str(&format!("{:x}", words[i]));
            started = true;
        }
    }
    if !started {
        s.push('0');
    }
    s
}

// -------------------------------------------------- state serialization

/// Appends `v` to a state blob as lowercase hex followed by a `.`
/// separator. The blob stays one whitespace-free ASCII token, so it
/// travels verbatim on the line-oriented wire protocols.
pub fn push_hex(s: &mut String, v: u128) {
    use std::fmt::Write as _;
    let _ = write!(s, "{v:x}.");
}

/// Appends a word slice to a state blob, one `.`-terminated hex token
/// per word (little-endian word order, same as the in-memory layout).
pub fn push_hex_words(s: &mut String, words: &[u64]) {
    for &w in words {
        push_hex(s, w as u128);
    }
}

/// Streaming parser for the `.`-separated hex blobs `push_hex`
/// produces; the consuming side of `save_state`/`load_state` in the
/// emitted simulator. Parsing is strict: a malformed or missing token
/// yields `None` and the caller rejects the whole blob.
pub struct HexStream<'a> {
    it: std::str::Split<'a, char>,
}

impl<'a> HexStream<'a> {
    /// Starts reading `blob` from the first token.
    pub fn new(blob: &'a str) -> HexStream<'a> {
        HexStream {
            it: blob.split('.'),
        }
    }

    /// The next token as a `u128`, or `None` on exhaustion/bad hex.
    pub fn next_u128(&mut self) -> Option<u128> {
        let tok = self.it.next()?;
        if tok.is_empty() || tok.len() > 32 {
            return None;
        }
        u128::from_str_radix(tok, 16).ok()
    }

    /// The next token as a `u64`, or `None` on exhaustion/overflow.
    pub fn next_u64(&mut self) -> Option<u64> {
        u64::try_from(self.next_u128()?).ok()
    }

    /// Fills `out` from the next `out.len()` tokens; `false` on any
    /// missing or bad token.
    pub fn fill_words(&mut self, out: &mut [u64]) -> bool {
        for w in out {
            match self.next_u64() {
                Some(v) => *w = v,
                None => return false,
            }
        }
        true
    }

    /// `true` once every token has been consumed (the trailing `.`
    /// leaves one final empty fragment).
    pub fn at_end(&mut self) -> bool {
        matches!(self.it.next(), None | Some(""))
    }
}
