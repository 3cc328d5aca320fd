//! A minimal JSON reader for fault-plan fixtures.
//!
//! The workspace deliberately carries no serde; plans and storm scripts
//! are serialized with hand-rolled writers and read back through this
//! parser. It covers exactly what the fixtures need — objects, arrays,
//! strings with basic escapes, and unsigned integers — and rejects
//! everything else with a positioned error message. Nesting past a fixed
//! depth is rejected too, so hostile input cannot exhaust the stack of
//! this recursive-descent reader.

/// Deepest nesting of objects and arrays a document may have (the
/// fixtures nest 4 deep).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value (the fixture subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// An object, in source order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string.
    Str(String),
    /// An unsigned integer (the only number form plans use).
    UInt(u64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn peek(b: &[u8], pos: &mut usize) -> Option<u8> {
    skip_ws(b, pos);
    b.get(*pos).copied()
}

/// Parse one value inside `depth` enclosing objects and arrays.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    match peek(b, pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(c) if c.is_ascii_digit() => parse_uint(b, pos),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_uint(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let mut n: u64 = 0;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add((b[*pos] - b'0') as u64))
            .ok_or_else(|| format!("integer overflow at byte {start}"))?;
        *pos += 1;
    }
    if *pos < b.len() && matches!(b[*pos], b'.' | b'e' | b'E' | b'-' | b'+') {
        return Err(format!(
            "only unsigned integers are supported (byte {start})"
        ));
    }
    Ok(Json::UInt(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    _ => return Err(format!("unsupported escape at byte {}", *pos)),
                });
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unmodified.
                let s = &b[*pos..];
                let ch_len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                    .map_err(|_| format!("invalid utf-8 at byte {}", *pos))?;
                out.push_str(chunk);
                *pos += chunk.len();
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    if peek(b, pos) == Some(b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        fields.push((key, val));
        match peek(b, pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    if peek(b, pos) == Some(b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        match peek(b, pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(
            r#"{ "a": [1, 2, {"b": "x\n"}], "c": 18446744073709551615, "t": true, "z": null }"#,
        )
        .unwrap();
        assert_eq!(v.get("c").and_then(Json::as_u64), Some(u64::MAX));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x\n"));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1.5").is_err(), "floats unsupported");
        assert!(Json::parse("-3").is_err(), "negatives unsupported");
        assert!(Json::parse("{}{}").is_err(), "trailing content");
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let open = "[".repeat(200_000);
        let err = Json::parse(&open).expect_err("unterminated and too deep");
        assert!(err.contains("nesting deeper than 64"), "{err}");
        assert!(crate::FaultPlan::from_json(&format!("{{\"events\": {open}")).is_err());
        assert!(crate::StormPlan::from_json(&format!("{{\"windows\": {open}")).is_err());
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        // `MAX_DEPTH` levels mixing objects and arrays parse; one more
        // level is rejected.
        let nest = |levels: usize| {
            let mut doc = String::from("0");
            for level in 0..levels {
                doc = if level % 2 == 0 {
                    format!("[{doc}]")
                } else {
                    format!("{{\"k\": {doc}}}")
                };
            }
            doc
        };
        let mut v = &Json::parse(&nest(MAX_DEPTH)).expect("at the cap");
        for level in (0..MAX_DEPTH).rev() {
            v = if level % 2 == 0 {
                &v.as_array().expect("array level")[0]
            } else {
                v.get("k").expect("object level")
            };
        }
        assert_eq!(v.as_u64(), Some(0));
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn string_escapes_decode() {
        let v = Json::parse(r#""q\" b\\ s\/ n\n t\t r\r""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" b\\ s/ n\n t\t r\r"));
    }

    #[test]
    fn unsupported_escapes_are_errors() {
        for src in [r#""\u0041""#, r#""\b""#, r#""\x""#, "\"\\"] {
            assert!(Json::parse(src).is_err(), "{src}");
        }
    }

    #[test]
    fn integers_past_u64_are_errors() {
        let err = Json::parse("[18446744073709551616]").unwrap_err();
        assert!(err.contains("integer overflow at byte 1"), "{err}");
    }

    #[test]
    fn multibyte_utf8_passes_through() {
        let v = Json::parse("{\"名前\": \"é ✓ 𝄞\"}").unwrap();
        assert_eq!(v.get("名前").and_then(Json::as_str), Some("é ✓ 𝄞"));
    }

    #[test]
    fn misspelt_literals_are_errors() {
        for src in ["tru", "nul", "fals", "True", "nulll", "truefalse"] {
            assert!(Json::parse(src).is_err(), "{src}");
        }
        assert_eq!(Json::parse("false"), Ok(Json::Bool(false)));
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let err = |src: &str| Json::parse(src).unwrap_err();
        assert_eq!(err("[1, x]"), "unexpected 'x' at byte 4");
        assert_eq!(err("{\"a\" 1}"), "expected ':' at byte 5");
        assert_eq!(err("{1: 2}"), "expected '\"' at byte 1");
        assert_eq!(err("[1 2]"), "expected ',' or ']' at byte 3");
        assert_eq!(err("{\"a\": 1 \"b\"}"), "expected ',' or '}' at byte 8");
        assert_eq!(err(""), "unexpected end of input");
    }

    #[test]
    fn whitespace_between_tokens_is_skipped() {
        let spaced = Json::parse(" \t\n{ \"a\" :\r\n[ 1 ,\t2 ] ,\"b\":{ } }\n ").unwrap();
        assert_eq!(spaced, Json::parse(r#"{"a":[1,2],"b":{}}"#).unwrap());
    }

    #[test]
    fn accessors_return_none_for_other_kinds() {
        assert_eq!(Json::Str("7".into()).as_u64(), None);
        assert_eq!(Json::UInt(7).as_str(), None);
        assert_eq!(Json::Object(vec![]).as_array(), None);
        assert_eq!(Json::Array(vec![Json::UInt(1)]).get("0"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn object_keys_keep_source_order_and_the_first_duplicate_wins() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "z": 3}"#).unwrap();
        let field = |k: &str, n| (k.to_string(), Json::UInt(n));
        let fields = vec![field("z", 1), field("a", 2), field("z", 3)];
        assert_eq!(v, Json::Object(fields));
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(vec![]));
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Array(vec![]));
    }
}
