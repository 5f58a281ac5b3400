//! Differential property tests: the AoT runtime's op semantics (`rt`)
//! must agree bit-for-bit with `gsim_value::ops`, the semantic
//! reference for the whole simulator. Every emitted program computes
//! wide signals through these functions (or through the narrow `u128`
//! tier, which the end-to-end AoT differential tests pin separately),
//! so this module is the load-bearing correctness argument for wide
//! signals in compiled simulators. The word kernels underneath are
//! `gsim_value::words` itself (embedded, not copied), pinned by that
//! crate's own tests.

use crate::rt;
use gsim_value::{ops, words_for, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

fn val(words: &[u64], w: u32) -> Value {
    Value::from_words(words.to_vec(), w)
}

fn out_for(w: u32) -> Vec<u64> {
    vec![0u64; words_for(w).max(1)]
}

/// Widths crossing the u64/u128/multi-word boundaries.
fn width() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..=3,
        62u32..=66,
        126u32..=130,
        190u32..=194,
        Just(256u32),
    ]
}

fn operand() -> impl Strategy<Value = (u32, Vec<u64>)> {
    (width(), proptest::collection::vec(any::<u64>(), 5))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn add_sub_mul_match((aw, a) in operand(), (bw, b) in operand(), signed in any::<bool>()) {
        let (va, vb) = (val(&a, aw), val(&b, bw));
        for (name, w, rtf, opf) in [
            ("add", ops::add_width(aw, bw),
             rt::add as fn(&mut [u64], u32, &[u64], u32, &[u64], u32, bool),
             ops::add as fn(&Value, &Value, bool) -> Value),
            ("sub", ops::add_width(aw, bw), rt::sub, ops::sub),
            ("mul", ops::mul_width(aw, bw), rt::mul, ops::mul),
        ] {
            if name == "mul" && w == 0 {
                continue; // ops::mul returns width 0 directly
            }
            let mut out = vec![0u64; words_for(w)];
            rtf(&mut out, w, va.words(), aw, vb.words(), bw, signed);
            let expect = opf(&va, &vb, signed);
            prop_assert_eq!(out.as_slice(), expect.words(), "{} {}x{}", name, aw, bw);
        }
    }

    #[test]
    fn div_rem_match((aw, a) in operand(), (bw, b) in operand(), signed in any::<bool>(), zero_b in any::<bool>()) {
        let va = val(&a, aw);
        let vb = if zero_b { Value::zero(bw) } else { val(&b, bw) };
        let w = ops::div_width(aw, signed);
        let mut out = out_for(w);
        rt::div(&mut out[..words_for(w)], w, va.words(), aw, vb.words(), bw, signed);
        let expect = ops::div(&va, &vb, signed);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "div {}/{}", aw, bw);

        let w = ops::rem_width(aw, bw);
        let mut out = out_for(w);
        rt::rem(&mut out[..words_for(w)], w, va.words(), aw, vb.words(), bw, signed);
        let expect = ops::rem(&va, &vb, signed);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "rem {}%{}", aw, bw);
    }

    #[test]
    fn comparisons_match((aw, a) in operand(), (bw, b) in operand(), signed in any::<bool>(), equal in any::<bool>()) {
        let va = val(&a, aw);
        let vb = if equal && bw >= aw {
            va.zext_or_trunc(bw)
        } else {
            val(&b, bw)
        };
        let ord = rt::cmp(va.words(), aw, vb.words(), bw, signed);
        let want_lt = ops::lt(&va, &vb, signed).to_u64() == Some(1);
        let want_eq = ops::eq(&va, &vb, signed).to_u64() == Some(1);
        let want_gt = ops::gt(&va, &vb, signed).to_u64() == Some(1);
        prop_assert_eq!(ord == Ordering::Less, want_lt);
        prop_assert_eq!(ord == Ordering::Equal, want_eq);
        prop_assert_eq!(ord == Ordering::Greater, want_gt);
    }

    #[test]
    fn bitwise_match((aw, a) in operand(), (bw, b) in operand(), signed in any::<bool>()) {
        let (va, vb) = (val(&a, aw), val(&b, bw));
        let w = aw.max(bw);
        for (which, opf) in [
            (0u8, ops::and as fn(&Value, &Value, bool) -> Value),
            (1u8, ops::or),
            (2u8, ops::xor),
        ] {
            let mut out = out_for(w);
            rt::bitwise(&mut out[..words_for(w)], w, va.words(), aw, vb.words(), bw, signed, which);
            let expect = opf(&va, &vb, signed);
            prop_assert_eq!(&out[..words_for(w)], expect.words());
        }
    }

    #[test]
    fn shifts_match((aw, a) in operand(), (bw, b) in operand(), sh in 0u32..300, signed in any::<bool>()) {
        let va = val(&a, aw);
        // static shl
        let w = aw + sh.min(128);
        let sh_c = sh.min(128);
        let mut out = out_for(w);
        rt::shl(&mut out[..words_for(w).max(1)], w, va.words(), sh_c);
        let expect = ops::shl(&va, sh_c);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "shl");
        // static shr
        let w = ops::shr_width(aw, sh);
        let mut out = out_for(w);
        rt::shr(&mut out[..words_for(w)], w, va.words(), aw, sh, signed);
        let expect = ops::shr(&va, sh, signed);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "shr by {} of {}", sh, aw);
        // dynamic shifts: dshl widths stay modest (wb <= 6 here)
        let wb = (bw % 7).min(6);
        let vb = val(&b, wb);
        let w = ops::dshl_width(aw, wb);
        let mut out = out_for(w);
        rt::dshl(&mut out[..words_for(w).max(1)], w, va.words(), vb.words());
        let expect = ops::dshl(&va, &vb);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "dshl");
        let mut out = out_for(aw);
        rt::dshr(&mut out[..words_for(aw)], va.words(), aw, vb.words(), signed);
        let expect = ops::dshr(&va, &vb, signed);
        prop_assert_eq!(&out[..words_for(aw)], expect.words(), "dshr");
    }

    #[test]
    fn pad_neg_ext_match((aw, a) in operand(), n in 0u32..300, signed in any::<bool>()) {
        let va = val(&a, aw);
        let w = aw.max(n);
        let mut out = out_for(w);
        rt::ext(&mut out[..words_for(w).max(1)], va.words(), aw, w, signed);
        let expect = ops::pad(&va, n, signed);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "pad {} -> {}", aw, n);

        let w = aw + 1;
        let mut out = out_for(w);
        rt::neg(&mut out[..words_for(w)], w, va.words(), aw, signed);
        let expect = ops::neg(&va, signed);
        prop_assert_eq!(&out[..words_for(w)], expect.words(), "neg {}", aw);
    }

    #[test]
    fn u128_tier_helpers_match((aw, a) in operand()) {
        // mask128 / sx128 / to_u128 agree with the canonical Value view
        // on narrow widths.
        let aw = aw.min(128);
        let va = val(&a, aw);
        let x = rt::to_u128(va.words());
        prop_assert_eq!(Some(x), va.to_u128());
        prop_assert_eq!(rt::mask128(x, aw), x, "canonical values are fixed points");
        let mut back = [u64::MAX; 3];
        rt::store128(&mut back, x);
        prop_assert_eq!((rt::to_u128(&back), back[2]), (x, 0));
        if aw <= 128 {
            prop_assert_eq!(Some(rt::sx128(x, aw)), va.to_i128());
        }
        prop_assert_eq!(rt::sat64(va.words()), va.to_u64().unwrap_or(u64::MAX));
        prop_assert_eq!(rt::sat64_128(x), va.to_u64().unwrap_or(u64::MAX));
    }

    #[test]
    fn hex_roundtrip((aw, a) in operand()) {
        let va = val(&a, aw);
        let hex = rt::to_hex(va.words());
        prop_assert_eq!(&hex, &format!("{:x}", va), "hex rendering");
        if aw > 0 {
            let parsed = gsim_sim::wire::parse_hex(&hex).unwrap();
            let vp = Value::from_words(parsed, aw);
            prop_assert_eq!(vp, va);
        }
    }
}

#[test]
fn store_entry_masks_and_zero_extends() {
    let mut mem = vec![0xffu64; 6];
    rt::store_entry(&mut mem, 2, 2, &[u64::MAX, u64::MAX], 70);
    assert_eq!(mem[2], u64::MAX);
    assert_eq!(mem[3], 0x3f); // 70 - 64 = 6 bits survive the mask
    assert_eq!(mem[4], 0xff); // untouched
                              // Short data zero-extends across the entry.
    rt::store_entry(&mut mem, 2, 2, &[7], 70);
    assert_eq!((mem[2], mem[3]), (7, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // The state-blob codec (`save_state`/`load_state` in the emitted
    // simulator): every word sequence must survive the `.`-separated
    // hex encoding exactly, and the stream must report exhaustion.
    #[test]
    fn state_blob_roundtrip(all in proptest::collection::vec(any::<u64>(), 10),
                            hi in any::<u64>(), lo in any::<u64>(), keep in 0usize..=10) {
        let words = &all[..keep];
        let scalar = (hi as u128) << 64 | lo as u128;
        let mut blob = String::new();
        rt::push_hex(&mut blob, scalar);
        rt::push_hex_words(&mut blob, words);

        let mut rd = rt::HexStream::new(&blob);
        prop_assert_eq!(rd.next_u128(), Some(scalar));
        let mut back = vec![0u64; words.len()];
        prop_assert!(rd.fill_words(&mut back), "every word token present");
        prop_assert_eq!(&back[..], words);
        prop_assert!(rd.at_end(), "no trailing tokens");
    }
}

/// Malformed blobs are rejected, not misparsed: empty tokens, junk
/// hex, overlong tokens, and u64 overflow all read as `None`/`false`.
#[test]
fn state_blob_rejects_malformed_tokens() {
    assert_eq!(rt::HexStream::new("").next_u128(), None);
    assert_eq!(rt::HexStream::new("xyz.").next_u128(), None);
    let overlong = format!("{}.", "f".repeat(33));
    assert_eq!(rt::HexStream::new(&overlong).next_u128(), None);
    // 2^64 fits a u128 token but overflows the u64 reader.
    assert_eq!(rt::HexStream::new("10000000000000000.").next_u64(), None);
    let mut short = rt::HexStream::new("a.");
    assert!(!short.fill_words(&mut [0u64; 2]), "truncated blob rejected");
    let mut trailing = rt::HexStream::new("a.b.");
    assert_eq!(trailing.next_u64(), Some(0xa));
    assert!(!trailing.at_end(), "unconsumed token detected");
}
