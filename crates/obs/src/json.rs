//! Minimal deterministic JSON: written, and read back.
//!
//! The workspace is dependency-free (no serde), and the golden-trace suite
//! requires byte-stable output, so everything here writes integers and
//! escaped strings straight into a `String` with no locale, float or
//! map-order pitfalls. Floats never appear: quantities that are naturally
//! fractional are emitted as scaled integers by the callers (e.g.
//! milli-units), keeping R3's "no float time" discipline in the artifacts
//! too.
//!
//! [`read_object`] is the one reader for every artifact those writers
//! produce: perf baselines, recorder dumps, telemetry exports and trace
//! lines. It borrows from its input and reads exactly what the writers
//! emit: objects (nested too), strings without escapes, `u64`, arrays of
//! `u64`, and JSON whitespace between tokens. Unknown keys of any of those
//! types are skipped, bytes after the closing brace are an error, and
//! every [`Error`] names the line and the byte where reading stopped.

use std::fmt;

/// Append a JSON string literal (with escaping) to `out`.
pub fn push_str_literal(out: &mut String, s: &str) {
    out.push('"');
    // Keys, tags and names never need escaping: copy them whole.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `"key":` to `out`.
pub fn push_key(out: &mut String, key: &str) {
    push_str_literal(out, key);
    out.push(':');
}

/// Append `"key":<u64>` with a leading comma when `first` is false; returns
/// false (the next field is no longer first).
pub fn push_u64_field(out: &mut String, first: bool, key: &str, value: u64) -> bool {
    if !first {
        out.push(',');
    }
    push_key(out, key);
    let _ = std::fmt::Write::write_fmt(out, format_args!("{value}"));
    false
}

/// Append `"key":"value"` with a leading comma when `first` is false.
pub fn push_str_field(out: &mut String, first: bool, key: &str, value: &str) -> bool {
    if !first {
        out.push(',');
    }
    push_key(out, key);
    push_str_literal(out, value);
    false
}

/// Why reading failed, and where: `line` counts from 1, `byte` is the
/// 0-based offset within that line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// Line where reading stopped.
    pub line: u64,
    /// Byte offset within that line.
    pub byte: usize,
    /// What was wrong.
    pub msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, byte {}: {}", self.line, self.byte, self.msg)
    }
}

impl std::error::Error for Error {}

/// A scalar value, borrowed from the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scalar<'a> {
    /// An unsigned integer.
    U64(u64),
    /// A string without escapes.
    Str(&'a str),
}

/// Deepest object nesting followed; the artifacts use three levels.
const MAX_DEPTH: u32 = 8;

/// A pull reader over one JSON text, handed to the callback of
/// [`read_object`]: the callback pulls each value in the type it expects.
///
/// Whitespace is skipped once, at each token boundary, by the readers of
/// the structure ([`read_object`], [`Reader::object`], the array reader and
/// [`Reader::value`]); a callback is handed the reader positioned on its
/// value's first byte, so the scalar readers do not skip again.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    first_line: u64,
    depth: u32,
}

/// Read `text` as exactly one object, whitespace around it allowed.
/// `field` gets each key and must read its value (or [`Reader::skip`] it).
/// `first_line` is the line number of `text`'s first line in its file.
pub fn read_object<'a>(
    text: &'a str,
    first_line: u64,
    field: impl FnMut(&mut Reader<'a>, &'a str) -> Result<(), Error>,
) -> Result<(), Error> {
    let mut r = Reader {
        text,
        pos: 0,
        first_line,
        depth: 0,
    };
    r.skip_ws();
    r.object(field)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(r.error("unexpected bytes after the closing brace"));
    }
    Ok(())
}

impl<'a> Reader<'a> {
    /// An error at the current position.
    #[cold]
    pub fn error(&self, msg: impl Into<String>) -> Error {
        let before = &self.text.as_bytes()[..self.pos];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let newlines = before.iter().filter(|&&b| b == b'\n').count() as u64;
        Error {
            line: self.first_line + newlines,
            byte: self.pos - line_start,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// An error naming what was expected and what was found instead.
    #[cold]
    fn unexpected(&self, expected: &str, unterminated: &str) -> Error {
        match self.peek() {
            None => self.error(format!("unterminated {unterminated}")),
            Some(b) => self.error(format!("expected {expected}, found {:?}", b as char)),
        }
    }

    /// Read an object, handing each key to `field`, which reads its value.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &'a str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.peek() != Some(b'{') {
            return Err(self.unexpected("'{'", "input"));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error("objects nested too deeply"));
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.string()?;
                self.skip_ws();
                if self.peek() != Some(b':') {
                    return Err(self.unexpected("':'", "object"));
                }
                self.pos += 1;
                self.skip_ws();
                field(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.skip_ws();
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.unexpected("',' or '}'", "object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read a string. Escapes are an error: no writer emits one, since
    /// every string the artifacts carry is a fixed identifier.
    pub fn string(&mut self) -> Result<&'a str, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected("a string", "input"));
        }
        let start = self.pos + 1;
        let rest = &self.text.as_bytes()[start..];
        match rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        {
            Some(n) if rest[n] == b'"' => {
                self.pos = start + n + 1;
                // Both ends are ASCII quotes, so the slice is on char
                // boundaries.
                Ok(&self.text[start..start + n])
            }
            Some(n) => {
                self.pos = start + n;
                Err(self.error(if rest[n] == b'\\' {
                    "escaped strings are not supported"
                } else {
                    "control character in string"
                }))
            }
            None => {
                self.pos = self.text.len();
                Err(self.error("unterminated string"))
            }
        }
    }

    /// Read an unsigned integer.
    pub fn u64(&mut self) -> Result<u64, Error> {
        let rest = &self.text.as_bytes()[self.pos..];
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return Err(self.unexpected("an unsigned integer", "input"));
        }
        let mut n = 0u64;
        for &d in &rest[..digits] {
            match n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
            {
                Some(next) => n = next,
                None => return Err(self.error("integer overflows u64")),
            }
        }
        self.pos += digits;
        Ok(n)
    }

    /// Read an array of unsigned integers.
    pub fn u64_array(&mut self) -> Result<Vec<u64>, Error> {
        let mut out = Vec::new();
        self.array(|v| out.push(v))?;
        Ok(out)
    }

    fn array(&mut self, mut push: impl FnMut(u64)) -> Result<(), Error> {
        if self.peek() != Some(b'[') {
            return Err(self.unexpected("'['", "input"));
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.unexpected("an unsigned integer as array element", "array"));
            }
            push(self.u64()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.unexpected("',' or ']'", "array")),
            }
        }
    }

    /// Read a value of any supported type: a scalar is returned, an array
    /// or object is checked and passed over (`None`).
    pub fn value(&mut self) -> Result<Option<Scalar<'a>>, Error> {
        match self.peek() {
            Some(b'"') => Ok(Some(Scalar::Str(self.string()?))),
            Some(b'[') => self.array(|_| {}).map(|()| None),
            Some(b'{') => self.object(|r, _| r.skip()).map(|()| None),
            _ => Ok(Some(Scalar::U64(self.u64()?))),
        }
    }

    /// Pass over the next value, whatever its supported type.
    pub fn skip(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_str_literal(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn fields_chain_with_commas() {
        let mut s = String::from("{");
        let first = true;
        let first = push_u64_field(&mut s, first, "a", 1);
        let first = push_str_field(&mut s, first, "b", "x");
        let _ = push_u64_field(&mut s, first, "c", 2);
        s.push('}');
        assert_eq!(s, "{\"a\":1,\"b\":\"x\",\"c\":2}");
    }

    /// Read `{"a":N,"b":"S",...}` keeping `a` and `b`, skipping the rest.
    fn read_ab(text: &str) -> Result<(u64, &str), Error> {
        let (mut a, mut b) = (0, "");
        read_object(text, 1, |r, key| {
            match key {
                "a" => a = r.u64()?,
                "b" => b = r.string()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok((a, b))
    }

    #[test]
    fn reads_what_the_writers_emit_and_skips_unknown_keys() {
        let mut s = String::from("{");
        let first = push_u64_field(&mut s, true, "a", u64::MAX);
        let _ = push_str_field(&mut s, first, "b", "Blue Mountain");
        s.push('}');
        assert_eq!(read_ab(&s), Ok((u64::MAX, "Blue Mountain")));
        let text = " {\n \"x\": [1, 2 ,3],\"a\" :7,\"y\":{\"z\":{}, \"w\":\"q\"},\"v\":[],\r\n\"b\":\"\"}\n";
        assert_eq!(read_ab(text), Ok((7, "")));
    }

    #[test]
    fn pulls_nested_objects_and_arrays() {
        let mut seen = Vec::new();
        read_object("{\"outer\":{\"xs\":[4,5],\"n\":6}}", 1, |r, key| {
            assert_eq!(key, "outer");
            r.object(|r, key| {
                match key {
                    "xs" => seen.extend(r.u64_array()?),
                    _ => seen.push(r.u64()?),
                }
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(seen, [4, 5, 6]);
    }

    #[test]
    fn errors_name_the_line_and_the_byte() {
        let err = read_ab("{\n  \"a\":1,\n  \"b\":\"x\"} GARBAGE").unwrap_err();
        assert_eq!((err.line, err.byte), (3, 11), "{err}");
        assert_eq!(
            err.to_string(),
            "line 3, byte 11: unexpected bytes after the closing brace"
        );
        let err = read_object("{\"a\":300xyz}", 7, |r, _| r.skip()).unwrap_err();
        assert_eq!((err.line, err.byte), (7, 8), "{err}");
        assert!(err.msg.contains("expected ',' or '}'"), "{err}");
    }

    #[test]
    fn rejects_everything_outside_the_subset() {
        for bad in [
            "",
            "[1]",
            "{",
            "{\"a\":1",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a:1}",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":true}",
            "{\"a\":null}",
            "{\"a\":18446744073709551616}",
            "{\"b\":\"x\\\"y\"}",
            "{\"b\":\"tab\there\"}",
            "{\"x\":[1,]}",
            "{\"x\":[\"s\"]}",
            "{\"x\":[1 2]}",
            "{\"a\":\"7\"}",
            "{\"b\":7}",
            "{}{}",
            "{\"x\":{\"x\":{\"x\":{\"x\":{\"x\":{\"x\":{\"x\":{\"x\":{}}}}}}}}}",
        ] {
            assert!(read_ab(bad).is_err(), "accepted {bad:?}");
        }
    }
}
