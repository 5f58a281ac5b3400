//! Unit tests for the word kernels (kept out of `words.rs` so that
//! file can be embedded verbatim in emitted simulators).

use super::*;

#[test]
fn mask_clears_top_bits() {
    let mut w = [u64::MAX, u64::MAX];
    mask_in_place(&mut w, 70);
    assert_eq!(w, [u64::MAX, 0x3f]);
    let mut w = [u64::MAX];
    mask_in_place(&mut w, 64);
    assert_eq!(w, [u64::MAX]);
    let mut w = [u64::MAX];
    mask_in_place(&mut w, 0);
    assert_eq!(w, [0]);
}

#[test]
fn add_with_carry_across_words() {
    let a = [u64::MAX, 0];
    let b = [1, 0];
    let mut d = [0u64; 2];
    let c = add(&mut d, &a, &b);
    assert_eq!(d, [0, 1]);
    assert!(!c);
}

#[test]
fn add_reports_carry_out() {
    let a = [u64::MAX, u64::MAX];
    let b = [1, 0];
    let mut d = [0u64; 2];
    assert!(add(&mut d, &a, &b));
    assert_eq!(d, [0, 0]);
}

#[test]
fn sub_reports_borrow() {
    let a = [0u64, 0];
    let b = [1, 0];
    let mut d = [0u64; 2];
    assert!(sub(&mut d, &a, &b));
    assert_eq!(d, [u64::MAX, u64::MAX]);
}

#[test]
fn mul_schoolbook_matches_u128() {
    let a = [0xdead_beef_1234_5678u64, 0];
    let b = [0x1_0000_0001u64, 0];
    let mut d = [0u64; 2];
    mul(&mut d, &a, &b);
    let expect = 0xdead_beef_1234_5678u128 * 0x1_0000_0001u128;
    assert_eq!(d[0], expect as u64);
    assert_eq!(d[1], (expect >> 64) as u64);
}

#[test]
fn shl_across_words() {
    let a = [0x8000_0000_0000_0001u64, 0];
    let mut d = [0u64; 2];
    shl(&mut d, &a, 1);
    assert_eq!(d, [2, 1]);
    shl(&mut d, &a, 64);
    assert_eq!(d, [0, 0x8000_0000_0000_0001]);
    shl(&mut d, &a, 128);
    assert_eq!(d, [0, 0]);
}

#[test]
fn lshr_across_words() {
    let a = [0x1u64, 0x8000_0000_0000_0000];
    let mut d = [0u64; 2];
    lshr(&mut d, &a, 63);
    assert_eq!(d, [0, 1]);
    lshr(&mut d, &a, 127);
    assert_eq!(d, [1, 0]);
    lshr(&mut d, &a, 128);
    assert_eq!(d, [0, 0]);
}

#[test]
fn ashr_sign_fills() {
    // 8-bit value 0b1000_0000 = -128
    let a = [0x80u64];
    let mut d = [0u64];
    ashr(&mut d, &a, 3, 8);
    assert_eq!(d[0], 0b1111_0000);
    // shift by >= width saturates to all-ones for negative
    ashr(&mut d, &a, 100, 8);
    assert_eq!(d[0], 0xff);
    // positive value
    let a = [0x40u64];
    ashr(&mut d, &a, 3, 8);
    assert_eq!(d[0], 0x08);
}

#[test]
fn extract_spanning_words() {
    let a = [0xffff_0000_0000_0000u64, 0x0000_0000_0000_ffff];
    let mut d = [0u64];
    extract(&mut d, &a, 48, 32);
    assert_eq!(d[0], 0xffff_ffff);
    let mut d = [0u64];
    extract(&mut d, &a, 60, 8);
    assert_eq!(d[0], 0xff);
}

#[test]
fn cat_unaligned() {
    let hi = [0xabu64];
    let lo = [0x5u64];
    let mut d = [0u64];
    cat(&mut d, &hi, &lo, 3);
    assert_eq!(d[0], (0xab << 3) | 0x5);
}

#[test]
fn cat_across_word_boundary() {
    let hi = [u64::MAX];
    let lo = [0u64, 0];
    let mut d = [0u64; 2];
    cat(&mut d, &hi, &lo[..1], 32);
    assert_eq!(d, [0xffff_ffff_0000_0000, 0xffff_ffff]);
}

#[test]
fn reductions() {
    assert!(andr(&[u64::MAX], 64));
    assert!(andr(&[0x7f], 7));
    assert!(!andr(&[0x7f], 8));
    assert!(orr(&[0, 1]));
    assert!(!orr(&[0, 0]));
    assert!(xorr(&[0b100]));
    assert!(!xorr(&[0b101]));
    assert!(xorr(&[0b110, 0b1]));
}

#[test]
fn udivrem_single_word() {
    let a = [100u64];
    let b = [7u64];
    let (mut q, mut r) = ([0u64], [0u64]);
    udivrem(&mut q, &mut r, &a, &b);
    assert_eq!((q[0], r[0]), (14, 2));
}

#[test]
fn udivrem_by_zero_defined() {
    let a = [100u64, 5];
    let b = [0u64, 0];
    let (mut q, mut r) = ([1u64, 1], [0u64, 0]);
    udivrem(&mut q, &mut r, &a, &b);
    assert_eq!(q, [0, 0]);
    assert_eq!(r, a);
}

#[test]
fn udivrem_multiword() {
    // (2^128 + 5) / 3 computed over 3 words
    let a = [5u64, 0, 1];
    let b = [3u64, 0, 0];
    let (mut q, mut r) = ([0u64; 3], [0u64; 3]);
    udivrem(&mut q, &mut r, &a, &b);
    // 2^128 = 3 * q0 + rem; 2^128 mod 3 = 1, so (2^128+5) mod 3 = 0
    assert_eq!(r, [0, 0, 0]);
    // verify q * 3 == a
    let mut check = [0u64; 3];
    mul(&mut check, &q, &b);
    assert_eq!(check, a);
}

#[test]
fn sext_copy_extends_negative() {
    // 4-bit value 0b1010 (-6) extended to 8 bits = 0b1111_1010
    let src = [0b1010u64];
    let mut d = [0u64];
    sext_copy(&mut d, &src, 4, 8);
    assert_eq!(d[0], 0b1111_1010);
    // positive stays
    let src = [0b0010u64];
    sext_copy(&mut d, &src, 4, 8);
    assert_eq!(d[0], 0b0000_0010);
}

#[test]
fn sext_copy_across_words() {
    let src = [0x8000_0000_0000_0000u64, 0];
    let mut d = [0u64; 2];
    sext_copy(&mut d, &src[..1], 64, 128);
    assert_eq!(d, [0x8000_0000_0000_0000, u64::MAX]);
}

#[test]
fn neg_wraps() {
    let a = [1u64, 0];
    let mut d = [0u64; 2];
    neg(&mut d, &a);
    assert_eq!(d, [u64::MAX, u64::MAX]);
    let a = [0u64, 0];
    neg(&mut d, &a);
    assert_eq!(d, [0, 0]);
}

#[test]
fn cmp_orderings() {
    assert_eq!(ucmp(&[1, 2], &[5, 1]), Ordering::Greater);
    assert_eq!(ucmp(&[5, 1], &[1, 2]), Ordering::Less);
    assert_eq!(ucmp(&[7, 7], &[7, 7]), Ordering::Equal);
    // -1 < 1 when sign-extended
    assert_eq!(scmp_extended(&[u64::MAX], &[1]), Ordering::Less);
    assert_eq!(scmp_extended(&[1], &[u64::MAX]), Ordering::Greater);
}

#[test]
fn top_bit_positions() {
    assert_eq!(top_bit(&[0, 0]), None);
    assert_eq!(top_bit(&[1, 0]), Some(0));
    assert_eq!(top_bit(&[0, 1]), Some(64));
    assert_eq!(top_bit(&[0, 0x8000_0000_0000_0000]), Some(127));
}

#[test]
fn popcount_counts() {
    assert_eq!(popcount(&[0b1011, 0b1]), 4);
}
