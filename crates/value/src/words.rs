//! Allocation-free arithmetic kernels over little-endian `u64` word slices.
//!
//! These functions are the primitive operations the simulation engine
//! executes. All of them:
//!
//! * treat slices as little-endian (`s[0]` holds bits 0..64),
//! * operate on *canonical* inputs (bits above the logical width are zero)
//!   and produce canonical outputs when given the destination width,
//! * never allocate.
//!
//! Destination and source slices may have different lengths where
//! documented; most binary kernels require equal lengths because the
//! bytecode compiler legalizes operand widths ahead of time.

use std::cmp::Ordering;

/// Masks bits at positions `>= width` in `w` to zero (canonicalizes).
///
/// `width` is interpreted relative to the full slice: `w.len() * 64` bits.
///
/// # Panics
///
/// Panics if `width` exceeds the slice capacity.
#[inline]
pub fn mask_in_place(w: &mut [u64], width: u32) {
    let nbits = (w.len() * 64) as u32;
    assert!(width <= nbits, "width {width} exceeds capacity {nbits}");
    let full = (width / 64) as usize;
    let rem = width % 64;
    if rem != 0 {
        w[full] &= (1u64 << rem) - 1;
        for word in &mut w[full + 1..] {
            *word = 0;
        }
    } else {
        for word in &mut w[full..] {
            *word = 0;
        }
    }
}

/// Returns `true` if every word of `w` is zero.
#[inline]
pub fn is_zero(w: &[u64]) -> bool {
    w.iter().all(|&x| x == 0)
}

/// Reads bit `i` of `w` (bit 0 is the least significant).
///
/// Bits beyond the slice read as zero.
#[inline]
pub fn get_bit(w: &[u64], i: u32) -> bool {
    let word = (i / 64) as usize;
    if word >= w.len() {
        return false;
    }
    (w[word] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` of `w` to `v`.
///
/// # Panics
///
/// Panics if `i` is beyond the slice capacity.
#[inline]
pub fn set_bit(w: &mut [u64], i: u32, v: bool) {
    let word = (i / 64) as usize;
    let mask = 1u64 << (i % 64);
    if v {
        w[word] |= mask;
    } else {
        w[word] &= !mask;
    }
}

/// Copies `src` into `dst`, zero-extending or truncating to `dst.len()`.
#[inline]
pub fn copy(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    dst[..n].copy_from_slice(&src[..n]);
    for w in &mut dst[n..] {
        *w = 0;
    }
}

/// Copies `src` (canonical at `src_width` bits) into `dst`,
/// sign-extending from `src_width` and then masking to `dst_width`.
///
/// If `src_width` is zero the result is zero.
pub fn sext_copy(dst: &mut [u64], src: &[u64], src_width: u32, dst_width: u32) {
    copy(dst, src);
    if src_width > 0 && src_width < dst_width && get_bit(src, src_width - 1) {
        // Fill bits [src_width, dst_width) with ones.
        let lo_word = (src_width / 64) as usize;
        let lo_rem = src_width % 64;
        if lo_rem != 0 {
            dst[lo_word] |= !((1u64 << lo_rem) - 1);
        } else if lo_word < dst.len() {
            dst[lo_word] = u64::MAX;
        }
        for w in dst.iter_mut().skip(lo_word + 1) {
            *w = u64::MAX;
        }
    }
    mask_in_place(dst, dst_width);
}

/// `dst = a + b` (wrapping at the slice length). All slices must have
/// equal length. Returns the carry out of the top word.
///
/// # Panics
///
/// Panics if slice lengths differ.
#[inline]
pub fn add(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    let mut carry = 0u64;
    for i in 0..dst.len() {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        dst[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    carry != 0
}

/// `dst = a - b` (wrapping at the slice length). All slices must have
/// equal length. Returns `true` if a borrow out occurred (a < b).
///
/// # Panics
///
/// Panics if slice lengths differ.
#[inline]
pub fn sub(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    let mut borrow = 0u64;
    for i in 0..dst.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        dst[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    borrow != 0
}

/// `dst = a * b` (wrapping at the slice length), schoolbook.
///
/// `dst` must not alias `a` or `b`. All slices must have equal length.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn mul(dst: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    dst.fill(0);
    let n = dst.len();
    for i in 0..n {
        if a[i] == 0 {
            continue;
        }
        let mut carry = 0u128;
        for j in 0..n - i {
            let t = a[i] as u128 * b[j] as u128 + dst[i + j] as u128 + carry;
            dst[i + j] = t as u64;
            carry = t >> 64;
        }
    }
}

/// Unsigned comparison of equal-length canonical slices.
#[inline]
pub fn ucmp(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Signed comparison of equal-length slices that are sign-extended to the
/// full slice capacity (i.e. the top bit of the top word is the sign).
#[inline]
pub fn scmp_extended(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return Ordering::Equal;
    }
    let top = a.len() - 1;
    let sa = (a[top] as i64) < 0;
    let sb = (b[top] as i64) < 0;
    match (sa, sb) {
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        _ => ucmp(a, b),
    }
}

/// `dst = a << sh` (in-slice, bits shifted past the top are lost).
///
/// `dst` and `a` must have equal length; `dst` may alias `a` only when the
/// caller guarantees `dst == a` is the same slice (in-place shift is
/// supported via copy semantics below — we iterate from the top).
pub fn shl(dst: &mut [u64], a: &[u64], sh: u32) {
    assert_eq!(dst.len(), a.len());
    let n = dst.len();
    let word_sh = (sh / 64) as usize;
    let bit_sh = sh % 64;
    if word_sh >= n {
        dst.fill(0);
        return;
    }
    if bit_sh == 0 {
        for i in (word_sh..n).rev() {
            dst[i] = a[i - word_sh];
        }
    } else {
        for i in (word_sh..n).rev() {
            let hi = a[i - word_sh] << bit_sh;
            let lo = if i - word_sh > 0 {
                a[i - word_sh - 1] >> (64 - bit_sh)
            } else {
                0
            };
            dst[i] = hi | lo;
        }
    }
    for w in &mut dst[..word_sh] {
        *w = 0;
    }
}

/// `dst = a >> sh` (logical). `dst` and `a` must have equal length.
pub fn lshr(dst: &mut [u64], a: &[u64], sh: u32) {
    assert_eq!(dst.len(), a.len());
    let n = dst.len();
    let word_sh = (sh / 64) as usize;
    let bit_sh = sh % 64;
    if word_sh >= n {
        dst.fill(0);
        return;
    }
    if bit_sh == 0 {
        dst[..n - word_sh].copy_from_slice(&a[word_sh..]);
    } else {
        for i in 0..n - word_sh {
            let lo = a[i + word_sh] >> bit_sh;
            let hi = if i + word_sh + 1 < n {
                a[i + word_sh + 1] << (64 - bit_sh)
            } else {
                0
            };
            dst[i] = lo | hi;
        }
    }
    for w in &mut dst[n - word_sh..] {
        *w = 0;
    }
}

/// Arithmetic shift right of `a`, canonical at `width` bits, producing a
/// canonical result at `width` bits in `dst`.
///
/// The sign bit is bit `width - 1` of `a`.
pub fn ashr(dst: &mut [u64], a: &[u64], sh: u32, width: u32) {
    if width == 0 {
        dst.fill(0);
        return;
    }
    let neg = get_bit(a, width - 1);
    let sh = sh.min(width);
    lshr(dst, a, sh);
    if neg {
        // Fill bits [width - sh, width) with ones.
        for i in width - sh..width {
            set_bit(dst, i, true);
        }
    }
}

/// Extracts bits `[lo, lo + dst_width)` of `a` into `dst` (canonical).
///
/// `dst_width` is `hi - lo + 1` for a FIRRTL `bits(a, hi, lo)`.
pub fn extract(dst: &mut [u64], a: &[u64], lo: u32, dst_width: u32) {
    let word_sh = (lo / 64) as usize;
    let bit_sh = lo % 64;
    for (i, d) in dst.iter_mut().enumerate() {
        let src_i = i + word_sh;
        let lo_part = if src_i < a.len() {
            a[src_i] >> bit_sh
        } else {
            0
        };
        let hi_part = if bit_sh != 0 && src_i + 1 < a.len() {
            a[src_i + 1] << (64 - bit_sh)
        } else {
            0
        };
        *d = lo_part | hi_part;
    }
    mask_in_place(dst, dst_width);
}

/// Concatenation: `dst = hi_val ## lo_val` where `lo_val` occupies
/// `lo_width` bits. `dst` must be long enough for the combined value.
pub fn cat(dst: &mut [u64], hi_val: &[u64], lo_val: &[u64], lo_width: u32) {
    copy(dst, lo_val);
    // OR the high part shifted left by lo_width.
    let word_sh = (lo_width / 64) as usize;
    let bit_sh = lo_width % 64;
    for (i, &h) in hi_val.iter().enumerate() {
        if h == 0 {
            continue;
        }
        let di = i + word_sh;
        if di < dst.len() {
            dst[di] |= h << bit_sh;
        }
        if bit_sh != 0 && di + 1 < dst.len() {
            dst[di + 1] |= h >> (64 - bit_sh);
        }
    }
}

/// Bitwise NOT of `a` into `dst`, canonical at `width`.
#[inline]
pub fn not(dst: &mut [u64], a: &[u64], width: u32) {
    assert_eq!(dst.len(), a.len());
    for i in 0..dst.len() {
        dst[i] = !a[i];
    }
    mask_in_place(dst, width);
}

/// Bitwise AND. Equal lengths required.
#[inline]
pub fn and(dst: &mut [u64], a: &[u64], b: &[u64]) {
    for i in 0..dst.len() {
        dst[i] = a[i] & b[i];
    }
}

/// Bitwise OR. Equal lengths required.
#[inline]
pub fn or(dst: &mut [u64], a: &[u64], b: &[u64]) {
    for i in 0..dst.len() {
        dst[i] = a[i] | b[i];
    }
}

/// Bitwise XOR. Equal lengths required.
#[inline]
pub fn xor(dst: &mut [u64], a: &[u64], b: &[u64]) {
    for i in 0..dst.len() {
        dst[i] = a[i] ^ b[i];
    }
}

/// AND-reduction of `a`, canonical at `width`: 1 iff all `width` bits set.
#[inline]
pub fn andr(a: &[u64], width: u32) -> bool {
    if width == 0 {
        return true; // andr of empty set is 1 by FIRRTL convention
    }
    let full = (width / 64) as usize;
    let rem = width % 64;
    for &w in &a[..full] {
        if w != u64::MAX {
            return false;
        }
    }
    if rem != 0 {
        let mask = (1u64 << rem) - 1;
        if a[full] & mask != mask {
            return false;
        }
    }
    true
}

/// OR-reduction: 1 iff any bit set.
#[inline]
pub fn orr(a: &[u64]) -> bool {
    !is_zero(a)
}

/// XOR-reduction: parity of set bits.
#[inline]
pub fn xorr(a: &[u64]) -> bool {
    let mut acc = 0u64;
    for &w in a {
        acc ^= w;
    }
    acc.count_ones() % 2 == 1
}

/// Counts set bits.
#[inline]
pub fn popcount(a: &[u64]) -> u32 {
    a.iter().map(|w| w.count_ones()).sum()
}

/// Unsigned long division: computes `q = a / b`, `r = a % b`.
///
/// All four slices must have equal length. Division by zero yields
/// `q = 0, r = a` (documented simulator semantics for an operation FIRRTL
/// leaves undefined). `q`/`r` must not alias `a`/`b`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn udivrem(q: &mut [u64], r: &mut [u64], a: &[u64], b: &[u64]) {
    assert_eq!(q.len(), a.len());
    assert_eq!(r.len(), a.len());
    assert_eq!(b.len(), a.len());
    q.fill(0);
    if is_zero(b) {
        copy(r, a);
        return;
    }
    // Fast path: single-word operands.
    if a.len() == 1 {
        q[0] = a[0] / b[0];
        r[0] = a[0] % b[0];
        return;
    }
    // Fast path: both values fit in 128 bits.
    if a.len() == 2 || (a[2..].iter().all(|&w| w == 0) && b[2..].iter().all(|&w| w == 0)) {
        let av = a[0] as u128 | (a.get(1).copied().unwrap_or(0) as u128) << 64;
        let bv = b[0] as u128 | (b.get(1).copied().unwrap_or(0) as u128) << 64;
        let qv = av / bv;
        let rv = av % bv;
        q[0] = qv as u64;
        if q.len() > 1 {
            q[1] = (qv >> 64) as u64;
        }
        r.fill(0);
        r[0] = rv as u64;
        if r.len() > 1 {
            r[1] = (rv >> 64) as u64;
        }
        return;
    }
    // General case: restoring bit-serial division, MSB first.
    r.fill(0);
    let nbits = (a.len() * 64) as u32;
    let top = top_bit(a).unwrap_or(0);
    let start = top.min(nbits - 1);
    // scratch-free: r = (r << 1) | bit, compare/subtract b.
    for i in (0..=start).rev() {
        // r <<= 1 in place (from the top down).
        let mut carry_in = if get_bit(a, i) { 1u64 } else { 0 };
        for w in r.iter_mut() {
            let carry_out = *w >> 63;
            *w = (*w << 1) | carry_in;
            carry_in = carry_out;
        }
        if ucmp(r, b) != Ordering::Less {
            // r -= b, in place. Safe: separate slices.
            let mut borrow = 0u64;
            for j in 0..r.len() {
                let (d1, b1) = r[j].overflowing_sub(b[j]);
                let (d2, b2) = d1.overflowing_sub(borrow);
                r[j] = d2;
                borrow = (b1 as u64) + (b2 as u64);
            }
            set_bit(q, i, true);
        }
    }
}

/// Index of the highest set bit, or `None` if the value is zero.
#[inline]
pub fn top_bit(a: &[u64]) -> Option<u32> {
    for i in (0..a.len()).rev() {
        if a[i] != 0 {
            return Some(i as u32 * 64 + 63 - a[i].leading_zeros());
        }
    }
    None
}

/// Two's complement negation of `a` into `dst` (wrapping at slice length).
///
/// `dst` may alias `a`.
#[inline]
pub fn neg(dst: &mut [u64], a: &[u64]) {
    let mut carry = 1u64;
    for i in 0..dst.len() {
        let (v, c) = (!a[i]).overflowing_add(carry);
        dst[i] = v;
        carry = c as u64;
    }
}

#[cfg(test)]
mod tests;
