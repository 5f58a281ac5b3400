//! A minimal JSON reader for the benchmark's documents.
//!
//! The vendored dependency set has no serde; `BENCHMARK.json` and the
//! benchmark's result lines are small and flat, so a ~150-line
//! recursive-descent parser covers their needs (key lookup,
//! number/string extraction) without pulling anything in. Parsing is
//! strict enough to reject truncated files but deliberately does not
//! implement the full spec (no `\uXXXX` escapes beyond pass-through, no
//! exponent edge-cases past `f64::parse`).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`; metrics are compared through ratios,
    /// so 53 bits of mantissa are plenty).
    Num(f64),
    /// A string (escapes resolved for the common cases).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let b = text.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.i,
            msg: msg.into(),
        }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {s}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value()?;
            m.insert(k, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        other => {
                            return Err(self.err(&format!("unsupported escape {other:?}")));
                        }
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.b[self.i..];
                    let ch_len = std::str::from_utf8(rest)
                        .ok()
                        .and_then(|t| t.chars().next())
                        .map(|c| c.len_utf8())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    s.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                    self.i += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_schema_shape() {
        let doc = r#"{
  "schema": "gsim-bench-interp/1",
  "scale": 0.02, "cycles": 2000, "smoke": false,
  "threads": [ {"engine": "Essential", "threads": 1, "hz": 1.5e4, "speedup": 1.0} ],
  "dispatch": [], "note": "a\"b", "null": null
}"#;
        let j = parse(doc).unwrap();
        assert_eq!(
            j.get("schema").unwrap().as_str(),
            Some("gsim-bench-interp/1")
        );
        assert_eq!(j.get("cycles").unwrap().as_num(), Some(2000.0));
        assert_eq!(j.get("smoke"), Some(&Json::Bool(false)));
        let t = j.get("threads").unwrap().as_arr().unwrap();
        assert_eq!(t[0].get("hz").unwrap().as_num(), Some(1.5e4));
        assert_eq!(j.get("note").unwrap().as_str(), Some("a\"b"));
        assert_eq!(j.get("null"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_committed_bench_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let j = parse(&text).unwrap();
        assert_eq!(j.get("workloads").unwrap().as_arr().unwrap().len(), 4);
        assert!(!j.get("end_to_end").unwrap().as_arr().unwrap().is_empty());
    }
}
