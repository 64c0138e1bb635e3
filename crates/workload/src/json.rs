//! The workspace's one JSON reader, and its string escaper.
//!
//! Every on-disk format reads through this module: recorded traces
//! ([`crate::RecordedTrace`]), placement artifacts (`hhpim::artifact`)
//! and the bench gate's baseline file. Each format keeps its own
//! schema walk and its own writer. Writers quote strings with
//! [`quote`] and format floats inline with `{:?}`, Rust's shortest
//! round-trip form, so [`Reader::f64`] reads back the exact bits that
//! were written.
//!
//! [`Reader`] is a cursor over the input bytes, not a value tree: a
//! schema walk asks for exactly the token it expects next, and any
//! mismatch is a [`ParseError`] carrying the byte offset where reading
//! stopped. Integers are read from the raw number token, never through
//! `f64`, so a 64-bit checksum keeps every bit and an out-of-range
//! `u32` version is an error rather than a silent wrap.
//!
//! # Examples
//!
//! ```
//! use hhpim_workload::json::{quote, Reader};
//!
//! let text = format!("{{\"label\": {}, \"version\": 1, \"xs\": [0.1, 2.5]}}", quote("a\"b"));
//! let mut r = Reader::new(text.as_bytes());
//! let (mut label, mut version, mut xs) = (String::new(), 0, Vec::new());
//! r.object(|r, key| {
//!     match key {
//!         "label" => label = r.string()?,
//!         "version" => version = r.int::<u32>()?,
//!         "xs" => r.array(|r| {
//!             xs.push(r.f64()?);
//!             Ok(())
//!         })?,
//!         _ => r.skip_value()?,
//!     }
//!     Ok(())
//! })
//! .unwrap();
//! r.end().unwrap();
//! assert_eq!((label.as_str(), version, xs), ("a\"b", 1, vec![0.1, 2.5]));
//!
//! // 2^32 + 1 does not fit a u32: an error, not a wrap to 1.
//! assert!(Reader::new(b"4294967297").int::<u32>().is_err());
//! ```

use std::fmt;
use std::str::FromStr;

/// How deeply [`Reader::skip_value`] follows nested containers before
/// giving up, so a hostile file cannot exhaust the stack.
const MAX_SKIP_DEPTH: usize = 64;

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Why a [`Reader`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the reader expected or found.
    pub message: String,
    /// Byte offset where reading stopped.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// A streaming JSON cursor over a byte slice. Every read skips leading
/// whitespace first.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// A [`ParseError`] at the current offset.
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    /// Consumes `word` (such as `null`) if it comes next.
    pub fn literal(&mut self, word: &str) -> bool {
        self.peek();
        let found = self.bytes[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Consumes `byte`; an error if anything else comes next.
    pub fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// Checks that only whitespace remains.
    pub fn end(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing content")),
        }
    }

    /// A string with its escapes resolved; an error unless a
    /// well-formed UTF-8 string comes next.
    pub fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let c = match self.bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let c = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    self.pos += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                byte => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("invalid UTF-8 in string"))
    }

    /// The raw text of the next number token.
    fn number(&mut self) -> Result<&'a str, ParseError> {
        self.peek();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b"+-0123456789.eE".contains(b))
        {
            self.pos += 1;
        }
        match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(token) if !token.is_empty() => Ok(token),
            _ => Err(self.error("expected a number")),
        }
    }

    /// A finite `f64`; an error on anything else, including a number
    /// that overflows to infinity.
    pub fn f64(&mut self) -> Result<f64, ParseError> {
        let token = self.number()?;
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.error(format!("`{token}` is not a finite number"))),
        }
    }

    /// An integer parsed from the raw token as `T` (all 64 bits of a
    /// `u64` stay exact); an error unless the token is an integer in
    /// `T`'s range.
    pub fn int<T: FromStr>(&mut self) -> Result<T, ParseError> {
        let token = self.number()?;
        token.parse().map_err(|_| {
            let ty = std::any::type_name::<T>();
            self.error(format!("`{token}` is not a {ty}"))
        })
    }

    /// `[item, item, …]`, each element read by `item`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(b']');
            }
        }
    }

    /// `{"key": value, …}`, each value read by `field`, which is given
    /// its key.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, &key)?;
            if !self.eat(b',') {
                return self.expect(b'}');
            }
        }
    }

    /// Reads past one value of any kind.
    pub fn skip_value(&mut self) -> Result<(), ParseError> {
        self.skip_nested(0)
    }

    fn skip_nested(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_SKIP_DEPTH {
            return Err(self.error("values nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_nested(depth + 1)),
            Some(b'[') => self.array(|r| r.skip_nested(depth + 1)),
            Some(b'"') => self.string().map(drop),
            _ if ["null", "true", "false"].iter().any(|w| self.literal(w)) => Ok(()),
            _ => self.f64().map(drop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_round_trip_through_quote() {
        for s in ["", "q\"b\\s/", "tab\tnl\ncr\r", "\u{1}ctl", "λ=3 ✓"] {
            let quoted = quote(s);
            let mut r = Reader::new(quoted.as_bytes());
            assert_eq!(r.string().unwrap(), s);
            r.end().unwrap();
        }
        for bad in ["\"open", "\"\\q\"", "\"\\u00\""] {
            assert!(Reader::new(bad.as_bytes()).string().is_err(), "{bad}");
        }
    }

    #[test]
    fn numbers_are_exact_and_range_checked() {
        assert_eq!(Reader::new(b" 18446744073709551615").int(), Ok(u64::MAX));
        assert_eq!(Reader::new(b"4294967295").int(), Ok(u32::MAX));
        for bad in ["4294967296", "1.0", "-1", "1e3", "", "x"] {
            assert!(Reader::new(bad.as_bytes()).int::<u32>().is_err(), "{bad}");
        }
        for v in [0.1, -2.5e-300, 1e2 / 3.0, f64::MAX] {
            let text = format!("{v:?}");
            let back = Reader::new(text.as_bytes()).f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(Reader::new(b"1e999").f64().is_err());
    }

    #[test]
    fn skip_value_passes_any_value_and_bounds_nesting() {
        let mut r = Reader::new(br#"{"a": [1, {"b": null}, "s", true, false, -5e3], "c": {}}"#);
        r.skip_value().unwrap();
        r.end().unwrap();
        let deep = "[".repeat(10_000);
        assert!(Reader::new(deep.as_bytes()).skip_value().is_err());
    }

    #[test]
    fn errors_carry_the_offset() {
        let err = Reader::new(b"[1, 2 3]").array(|r| r.int::<u32>().map(drop));
        assert_eq!(err.unwrap_err().to_string(), "expected `]` at byte 6");
    }
}
