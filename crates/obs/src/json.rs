//! The workspace's one JSON codec: a value type, a bounded parser, one
//! string escaper, and the typed accessors the decoders are built on.
//!
//! Three formats go through it: span JSONL lines ([`crate::schema`],
//! written by [`crate::Span::to_jsonl_with`]), `penny-herd`
//! shard-report files (`penny_bench::json`) and `penny-lint --json`
//! diagnostics. All are written by this workspace and contain only
//! strings, unsigned integers, arrays and objects, so that is all
//! [`Value`] holds — no floats, negatives, booleans or `null`. The
//! build has no JSON dependency; this module stays small instead.
//!
//! Report files cross a process boundary and may be truncated or
//! corrupt, so [`parse`] treats its input as untrusted:
//!
//! * strings are copied in runs between escapes, so the scan is linear
//!   (only the duplicate-key check sorts each object's keys);
//! * nesting is capped at [`MAX_DEPTH`], so no input can overflow the
//!   stack;
//! * integers beyond `u64::MAX` or with leading zeros, duplicate object
//!   keys, raw control characters inside strings, lone surrogate `\u`
//!   escapes and trailing input are all errors.
//!
//! Every error is a `String` naming the byte offset (parse errors) or
//! the field (accessor errors), so a caller can report exactly what is
//! wrong with the input it rejected.

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts. Report files nest 6
/// levels deep and span lines 2; anything far deeper is corrupt input.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value — the shapes the workspace writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A string literal (escapes resolved).
    Str(String),
    /// An unsigned integer.
    Num(u64),
    /// An array.
    Arr(Vec<Value>),
    /// An object, its fields in source order (keys are unique).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or an error naming `ctx`.
    pub fn as_obj(&self, ctx: &str) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(f) => Ok(f),
            _ => Err(format!("{ctx}: expected an object")),
        }
    }

    /// The array's elements, or an error naming `ctx`.
    pub fn as_arr(&self, ctx: &str) -> Result<&[Value], String> {
        match self {
            Value::Arr(v) => Ok(v),
            _ => Err(format!("{ctx}: expected an array")),
        }
    }

    /// The number, or an error naming `ctx`.
    pub fn as_num(&self, ctx: &str) -> Result<u64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            _ => Err(format!("{ctx}: expected a number")),
        }
    }

    /// The number narrowed to `u32`, or an error naming `ctx` when it is
    /// not a number or exceeds `u32::MAX`.
    pub fn as_u32(&self, ctx: &str) -> Result<u32, String> {
        let n = self.as_num(ctx)?;
        u32::try_from(n).map_err(|_| format!("{ctx}: {n} exceeds u32::MAX"))
    }

    /// The string, or an error naming `ctx`.
    pub fn as_str(&self, ctx: &str) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(format!("{ctx}: expected a string")),
        }
    }

    /// A required field of this object.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        let Value::Obj(fields) = self else {
            return Err(format!("expected an object with field {key:?}"));
        };
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A required array field of this object.
    pub fn arr(&self, key: &str) -> Result<&[Value], String> {
        self.field(key)?.as_arr(key)
    }

    /// A required number field of this object.
    pub fn num(&self, key: &str) -> Result<u64, String> {
        self.field(key)?.as_num(key)
    }

    /// A required `u32` field of this object (out-of-range values are
    /// errors, never truncated).
    pub fn u32(&self, key: &str) -> Result<u32, String> {
        self.field(key)?.as_u32(key)
    }

    /// A required string field of this object.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.field(key)?.as_str(key)
    }
}

/// Parses one JSON document; trailing input other than whitespace is
/// rejected.
///
/// # Errors
///
/// Returns a byte-offset-labelled description of the first problem.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { src: s, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != s.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Escapes `s` for the inside of a JSON string literal (the caller
/// writes the quotes): `"`, `\`, newline, tab and carriage return get
/// their short escapes, other control characters `\u00XX`, everything
/// else is written as is.
pub fn escape(s: &str) -> Escaped<'_> {
    Escaped(s)
}

/// [`escape`]'s result; writes the escaped text through `Display`.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut run = 0;
        for (i, c) in s.char_indices() {
            if c >= ' ' && c != '"' && c != '\\' {
                continue;
            }
            f.write_str(&s[run..i])?;
            // Every escaped character is a single byte.
            run = i + 1;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\t' => f.write_str("\\t")?,
                '\r' => f.write_str("\\r")?,
                _ => write!(f, "\\u{:04x}", c as u32)?,
            }
        }
        f.write_str(&s[run..])
    }
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parses one value at nesting `depth` (the number of arrays and
    /// objects enclosing it).
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            Some(open @ (b'[' | b'{')) => {
                if depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than MAX_DEPTH"));
                }
                self.pos += 1;
                if open == b'[' {
                    self.array(depth + 1)
                } else {
                    self.object(depth + 1)
                }
            }
            Some(_) => Err(self.err("expected a string, number, array or object")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("number exceeds u64::MAX"))?;
            self.pos += 1;
        }
        if self.pos - start > 1 && self.src.as_bytes()[start] == b'0' {
            return Err(format!("leading zero at byte {start}"));
        }
        Ok(Value::Num(n))
    }

    /// Parses a string literal; the cursor is on its opening quote.
    /// Unescaped runs are copied as whole slices, so the scan is
    /// linear in the literal's length.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    out.push(self.unescape()?);
                    run = self.pos;
                }
                Some(0x00..=0x1f) => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes one escape; the cursor is just past its backslash.
    fn unescape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self
                    .src
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                let c = char::from_u32(code)
                    .ok_or_else(|| self.err("lone surrogate \\u escape"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Parses array elements; the cursor is just past the `[`.
    fn array(&mut self, depth: usize) -> Result<Value, String> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parses object fields; the cursor is just past the `{`.
    fn object(&mut self, depth: usize) -> Result<Value, String> {
        let mut out: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            let value = self.value(depth)?;
            out.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        // Sorting the keys keeps the duplicate check O(k log k) on
        // adversarially wide objects.
        let mut keys: Vec<&str> = out.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "duplicate key {:?} in object ending at byte {}",
                dup[0], self.pos
            ));
        }
        Ok(Value::Obj(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_shape_the_workspace_writes() {
        let v = parse(r#"{"a":1,"b":"x\ny","c":[1,2,{"d":[]}],"e":{}}"#).unwrap();
        assert_eq!(v.num("a").unwrap(), 1);
        assert_eq!(v.str("b").unwrap(), "x\ny");
        assert_eq!(v.arr("c").unwrap().len(), 3);
        assert_eq!(v.field("e").unwrap(), &Value::Obj(Vec::new()));
        // Fields keep source order.
        let keys: Vec<&str> =
            v.as_obj("t").unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c", "e"]);
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Num(u64::MAX));
        assert_eq!(parse("0").unwrap(), Value::Num(0));
    }

    #[test]
    fn handles_whitespace_and_unicode() {
        let v =
            parse(" { \"a\" : \"caf\u{e9} \\u00e9 \\/\" , \"b\" : 42 , \"c\" : { } } \n")
                .unwrap();
        assert_eq!(v.str("a").unwrap(), "café é /");
        assert_eq!(v.num("b").unwrap(), 42);
        assert_eq!(v.field("c").unwrap(), &Value::Obj(Vec::new()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "not json",
            "{} trailing",
            "{\"a\":1}garbage",
            "{\"a\":1,\"a\":2}",
            "{\"c\":{\"x\":1,\"y\":2,\"x\":3}}",
            "[1,]",
            "{",
            "{\"a\"}",
            "{1:2}",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "\"\\q\"",
            "\"\\u00g1\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "\"\\u12",
            "-1",
            "1.5",
            "007",
            "true",
            "null",
            "18446744073709551616",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        // Deep enough to overflow the stack of an unbounded recursive
        // descent parser.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors_name_the_field() {
        let v = parse(r#"{"n":4294967296,"s":"x","m":4294967295}"#).unwrap();
        assert_eq!(v.u32("m").unwrap(), u32::MAX);
        let e = v.u32("n").unwrap_err();
        assert!(e.contains("\"n\"") || e.starts_with("n:"), "{e}");
        assert!(v.num("s").unwrap_err().starts_with("s:"));
        assert!(v.str("n").unwrap_err().starts_with("n:"));
        assert!(v.num("missing").unwrap_err().contains("\"missing\""));
        assert!(Value::Num(1).field("k").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in
            ["", "plain", "k\"\\\n\u{1}", "tab\there\r\u{1f}\u{7f}", "caf\u{e9} \u{1F600}"]
        {
            let lit = format!("\"{}\"", escape(s));
            assert_eq!(parse(&lit).unwrap(), Value::Str(s.into()), "{lit}");
        }
        assert_eq!(
            escape("a\"b\\c\nd\te\rf\u{1}g").to_string(),
            "a\\\"b\\\\c\\nd\\te\\rf\\u0001g"
        );
    }
}
