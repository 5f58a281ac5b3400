//! Tests of the protocol grammar (kept out of `wire.rs`, which is
//! embedded in emitted simulators): `parse(render(x)) == x` for every
//! `Command` and `Reply` shape, and `parse` of arbitrary bytes never
//! panics and yields a command or a single-line `WireError`.

use super::*;
use proptest::prelude::*;

/// A non-empty whitespace-free token drawn from printable ASCII
/// (including `:` and `=`) plus a few multi-byte characters.
fn token() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 1..12).prop_map(|seed| {
        seed.iter()
            .map(|&b| match b % 100 {
                94 => 'é',
                95 => '→',
                96 => '\u{0}',
                97..=99 => ':',
                c => (b'!' + c) as char,
            })
            .collect()
    })
}

/// Hex digits for values up to 4096 bits, either case.
fn hex() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 1..=1024).prop_map(|seed| {
        seed.iter()
            .map(|&b| {
                let c = char::from_digit(u32::from(b % 16), 16).expect("digit");
                if b & 0x80 != 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    })
}

/// Load images: empty, small, and 64k-word.
fn image() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u64>(), 1..8),
        any::<u64>().prop_map(|x| (0..65536u64).map(|i| x.rotate_left(i as u32) ^ i).collect()),
    ]
}

fn roundtrip_command(cmd: Command<'_>) -> Result<(), TestCaseError> {
    let line = cmd.to_string();
    prop_assert!(!line.contains('\n'));
    prop_assert_eq!(Command::parse(&line), Ok(cmd));
    Ok(())
}

fn roundtrip_reply(reply: Reply<'_>) -> Result<(), TestCaseError> {
    let line = reply.to_string();
    prop_assert_eq!(Reply::parse(&line), Ok(reply));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_command_round_trips(
        name in token(),
        hex in hex(),
        image in image(),
        n in any::<u64>(),
        names in proptest::collection::vec(token(), 0..6),
    ) {
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        for cmd in [
            Command::Poke { name: &name, hex: &hex },
            Command::Step(n),
            Command::Load { mem: &name, image },
            Command::Peek(&name),
            Command::Counters,
            Command::List,
            Command::Snapshot,
            Command::Restore(n),
            Command::State,
            Command::LoadState(&hex),
            Command::TraceOn(names),
            Command::TraceOff,
            Command::Sync,
            Command::Exit,
        ] {
            roundtrip_command(cmd)?;
        }
    }

    #[test]
    fn every_reply_round_trips(
        name in token(),
        hex in hex(),
        n in any::<u64>(),
        width in any::<u32>(),
        sigs in proptest::collection::vec((token(), any::<u32>()), 0..6),
    ) {
        let sigs: Vec<(&str, u32)> = sigs.iter().map(|(n, w)| (n.as_str(), *w)).collect();
        let mems = sigs.iter().map(|&(n, w)| (n, u64::from(w) << 7, w)).collect();
        let err = format!("unknown-signal {name}");
        for reply in [
            Reply::Val { width, hex: &hex },
            Reply::Counters([n, n ^ 1, n >> 3, !n]),
            Reply::Snap(n),
            Reply::State { cycle: n, blob: &hex },
            Reply::Ok(n),
            Reply::Err(&err),
            Reply::Chg { cycle: n, name: &name, hex: &hex },
            Reply::Inputs(sigs.clone()),
            Reply::Signals(sigs),
            Reply::Mems(mems),
        ] {
            roundtrip_reply(reply)?;
        }
    }

    // Arbitrary bytes (lossily decoded, as both servers do), bare and
    // behind each verb: never a panic; an `Ok` re-renders to a line
    // that parses to the same command; an `Err` is one bounded line.
    #[test]
    fn arbitrary_lines_never_panic(
        verb in 0usize..16,
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        const VERBS: [&str; 16] = [
            "", "poke ", "step ", "load ", "peek ", "counters ", "list ", "snapshot ",
            "restore ", "state ", "loadstate ", "trace ", "trace on ", "sync ", "exit ", "val ",
        ];
        let line = format!("{}{}", VERBS[verb], String::from_utf8_lossy(&bytes));
        let line = line.lines().next().unwrap_or("");
        match Command::parse(line) {
            Ok(cmd) => roundtrip_command(cmd)?,
            Err(e) => {
                prop_assert!(!e.reply().contains('\n') && e.msg.len() < 128, "{:?}", e);
            }
        }
        if let Ok(reply) = Reply::parse(line) {
            roundtrip_reply(reply)?;
        }
    }
}

#[test]
fn defaults_and_malformed_commands() {
    assert_eq!(Command::parse("step"), Ok(Command::Step(1)));
    assert_eq!(
        Command::parse("  peek   out  extra "),
        Ok(Command::Peek("out"))
    );
    assert_eq!(Command::parse("trace on"), Ok(Command::TraceOn(vec![])));
    assert_eq!(
        Command::parse("load m 0 00000000000000001 ffffffffffffffff"),
        Ok(Command::Load {
            mem: "m",
            image: vec![0, 1, u64::MAX]
        })
    );
    // Everything outside the grammar is one class of error; only a
    // malformed query is answered immediately.
    for (line, query) in [
        ("", false),
        ("frobnicate", false),
        ("poke", false),
        ("poke x", false),
        ("poke x -1", false),
        ("poke x 1_0", false),
        ("step many", false),
        ("step -1", false),
        ("load", false),
        ("load m 10000000000000000", false),
        ("load m xyz", false),
        ("peek", true),
        ("restore", false),
        ("restore first", false),
        ("loadstate", false),
        ("trace", false),
        ("trace maybe", false),
    ] {
        let e = Command::parse(line).expect_err(line);
        assert_eq!(e.query, query, "{line:?}");
        assert!(e.reply().starts_with("err protocol "), "{line:?}");
    }
}

#[test]
fn megabyte_tokens_are_bounded_errors_or_commands() {
    let big = "f".repeat(1 << 20);
    assert!(matches!(
        Command::parse(&format!("poke x {big}")),
        Ok(Command::Poke { hex, .. }) if hex.len() == 1 << 20
    ));
    assert_eq!(parse_hex(&big).map(|w| w.len()), Some((1 << 20) / 16));
    assert!(matches!(
        Command::parse(&format!("peek {big}")),
        Ok(Command::Peek(_))
    ));
    for line in [
        big.clone(),
        format!("load m {big}"),
        format!("poke x g{big}"),
    ] {
        let e = Command::parse(&line).expect_err("malformed");
        assert!(e.msg.len() < 128, "error echoes at most a clipped token");
    }
}

#[test]
fn hex_rules() {
    assert_eq!(parse_hex("0"), Some(vec![0]));
    assert_eq!(parse_hex("Ff"), Some(vec![0xff]));
    assert_eq!(parse_hex("10000000000000000"), Some(vec![0, 1]));
    assert_eq!(parse_hex(""), None);
    assert_eq!(parse_hex("0x1"), None);
    assert_eq!(parse_hex64("ffffffffffffffff"), Some(u64::MAX));
    assert_eq!(parse_hex64("0000000000000000001"), Some(1));
    assert_eq!(parse_hex64("10000000000000000"), None);
    assert_eq!(parse_hex64("+1"), None);
    assert_eq!(parse_hex64(""), None);
}

#[test]
fn read_line_splits_strips_and_bounds() {
    use std::io::Read as _;
    let mut buf = Vec::new();
    let mut r = std::io::Cursor::new(&b"sync\r\n\n  peek a \nexit"[..]);
    for want in ["sync", "", "  peek a", "exit"] {
        assert_eq!(read_line(&mut r, &mut buf).unwrap(), LineRead::Line);
        assert_eq!(buf, want.as_bytes());
    }
    assert_eq!(read_line(&mut r, &mut buf).unwrap(), LineRead::Eof);

    // An over-long line is consumed to its terminator without being
    // held, and the stream stays in step.
    let long = std::io::repeat(b'x').take(MAX_LINE_BYTES as u64 + 1);
    let mut r = std::io::BufReader::new(long.chain(&b"\nsync\n"[..]));
    assert_eq!(read_line(&mut r, &mut buf).unwrap(), LineRead::TooLong);
    assert!(buf.len() <= MAX_LINE_BYTES);
    assert_eq!(read_line(&mut r, &mut buf).unwrap(), LineRead::Line);
    assert_eq!(buf, b"sync");
    assert!(WireError::line_too_long().query);
    assert!(check_upload(MAX_UPLOAD_BYTES).is_ok());
    assert!(check_upload(MAX_UPLOAD_BYTES + 1).is_err());
}
