//! Minimal JSON tree, writer and parser.
//!
//! The build environment has no crates.io access, so the report JSON is
//! hand-rolled here instead of going through `serde_json`. The surface is
//! intentionally tiny: build a [`Value`], pretty-print it, parse it back.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (always represented as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds an array of strings.
    pub fn str_arr<'a>(items: impl IntoIterator<Item = &'a String>) -> Value {
        Value::Arr(items.into_iter().map(|s| Value::Str(s.clone())).collect())
    }

    /// Looks up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Infinity tokens; follow
                    // JSON.stringify and emit null.
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Value::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts; deeper (malformed or
/// adversarial) input returns `None` instead of overflowing the stack.
const MAX_DEPTH: u32 = 128;

/// Parses a JSON document. Returns `None` on malformed input.
pub fn parse(input: &str) -> Option<Value> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Option<()> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: u32) -> Option<Value> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => parse_lit(b, pos, "null", Value::Null),
        b't' => parse_lit(b, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Value::Bool(false)),
        b'"' => parse_string(b, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Obj(pairs));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Option<Value> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if *b.get(*pos)? != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: must pair with `\uXXXX` low
                            // surrogate to form one non-BMP scalar.
                            if b.get(*pos + 1..*pos + 3)? != b"\\u" {
                                return None;
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return None;
                            }
                            *pos += 6;
                            let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(scalar)?);
                        } else {
                            // Lone low surrogates are rejected by from_u32.
                            out.push(char::from_u32(code)?);
                        }
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass through).
                let start = *pos;
                let s = std::str::from_utf8(&b[start..]).ok()?;
                let c = s.chars().next()?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses 4 hex digits at `at`.
fn parse_hex4(b: &[u8], at: usize) -> Option<u32> {
    let hex = b.get(at..at + 4)?;
    u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Value> {
    // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // (Rust's f64::from_str alone is laxer — it accepts `+1`, `1.`, `.5`.)
    let start = *pos;
    let mut p = *pos;
    if b.get(p) == Some(&b'-') {
        p += 1;
    }
    let digits = |p: &mut usize| {
        let from = *p;
        while *p < b.len() && b[*p].is_ascii_digit() {
            *p += 1;
        }
        *p > from
    };
    match b.get(p) {
        Some(b'0') => p += 1,
        Some(b'1'..=b'9') => {
            digits(&mut p);
        }
        _ => return None,
    }
    if b.get(p) == Some(&b'.') {
        p += 1;
        if !digits(&mut p) {
            return None;
        }
    }
    if matches!(b.get(p), Some(b'e' | b'E')) {
        p += 1;
        if matches!(b.get(p), Some(b'+' | b'-')) {
            p += 1;
        }
        if !digits(&mut p) {
            return None;
        }
    }
    *pos = p;
    std::str::from_utf8(&b[start..p]).ok()?.parse().ok().map(Value::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::obj(vec![
            ("name", Value::str("exp \"quoted\"\n")),
            ("count", Value::Num(42.0)),
            ("ratio", Value::Num(0.5)),
            ("flag", Value::Bool(true)),
            ("nothing", Value::Null),
            ("items", Value::Arr(vec![Value::Num(1.0), Value::str("two")])),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(vec![])),
        ]);
        let text = v.to_pretty();
        let back = parse(&text).expect("own output parses");
        assert_eq!(back, v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_none());
        assert!(parse("[1,]").is_none());
        assert!(parse("\"unterminated").is_none());
        assert!(parse("{}extra").is_none());
    }

    #[test]
    fn numbers_follow_strict_json_grammar() {
        for valid in ["0", "-0", "42", "-1.5", "1e9", "2.5E-3", "1e+2", "0.001"] {
            assert!(parse(valid).is_some(), "{valid} is valid JSON");
        }
        for invalid in ["+1", "1.", ".5", "01", "1e", "1e+", "-", "--1", "0x1"] {
            assert!(parse(invalid).is_none(), "{invalid} is not valid JSON");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let v = Value::Arr(vec![
            Value::Num(f64::NAN),
            Value::Num(f64::INFINITY),
            Value::Num(f64::NEG_INFINITY),
            Value::Num(1.5),
        ]);
        let text = v.to_pretty();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let back = parse(&text).expect("output must stay valid JSON");
        assert_eq!(back, Value::Arr(vec![Value::Null, Value::Null, Value::Null, Value::Num(1.5)]));
    }

    #[test]
    fn surrogate_pairs_parse_and_lone_surrogates_fail() {
        let v = parse(r#""\ud83d\ude00""#).expect("surrogate pair is valid JSON");
        assert_eq!(v, Value::Str("😀".to_string()));
        // Raw (unescaped) multi-byte UTF-8 also passes through.
        assert_eq!(parse(r#""😀""#), Some(Value::Str("😀".to_string())));
        assert!(parse(r#""\ud83d""#).is_none(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_none(), "lone low surrogate");
        assert!(parse(r#""\ud83dA""#).is_none(), "high surrogate + BMP char");
    }

    #[test]
    fn deep_nesting_returns_none_instead_of_overflowing() {
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_none());
        // Within the limit still parses.
        let ok = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&ok).is_some());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, 2], "s": "x"}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(Value::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert!(v.get("missing").is_none());
    }
}
