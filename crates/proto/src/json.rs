//! Hand-rolled JSON value type, parser and canonical serializer.
//!
//! The protocol layer ([`crate::msg`]) needs exactly three things from a
//! JSON implementation, none of which require a registry dependency:
//!
//! 1. a **canonical serializer** — no whitespace, insertion-ordered object
//!    members, a fixed escape policy — so that `serialize ∘ parse` is the
//!    identity on canonical text and protocol messages can be compared
//!    byte-for-byte (the determinism gate relies on this);
//! 2. a **robust parser** — truncation, bad escapes, bad numbers, depth
//!    bombs and trailing garbage are all [`JsonError`]s, never panics;
//! 3. **u64-exact integers** — trampoline and site addresses use the full
//!    64-bit range, so numbers are kept as `i128` internally instead of
//!    being squeezed through `f64`.
//!
//! The parser is a scanner walking the text once; the line decoders in
//! [`crate::msg`] walk it the same way without building a tree, and write
//! lines with `write_u64`, `write_str` and [`Json::write_to`]. Strings
//! are scanned eight bytes at a time and escaped in runs of plain bytes,
//! not a `char` at a time.
//!
//! Floats are accepted by the parser (the grammar is full JSON) but the
//! protocol itself only ever emits integers, strings, booleans and nulls.

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth the parser accepts before reporting
/// [`JsonError::TooDeep`] — bounds stack use against `[[[[…` bombs.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object members keep insertion order so that the
/// serializer is deterministic and `serialize(parse(s)) == s` for canonical
/// input `s`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer. `i128` covers the full `u64` and `i64` ranges losslessly.
    Int(i128),
    /// A non-integer number. Finite by construction (the parser rejects
    /// overflowing literals).
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup (first match) on an object; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Canonical serialization: minimal whitespace-free text.
    pub fn serialize(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out);
        String::from_utf8(out).expect("the serializer writes UTF-8")
    }

    /// Append the canonical serialization to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Int(i) => write_int(out, *i),
            Json::Float(f) => {
                if f.is_finite() {
                    // Rust's shortest-roundtrip Display; re-parsing yields
                    // the same f64.
                    let s = f.to_string();
                    out.extend_from_slice(s.as_bytes());
                    // `1.0f64.to_string()` is "1": keep it a float literal
                    // so the value re-parses into the Float variant.
                    if !s.contains(['.', 'e', 'E']) {
                        out.extend_from_slice(b".0");
                    }
                } else {
                    out.extend_from_slice(b"null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write_to(out);
                }
                out.push(b']');
            }
            Json::Obj(members) => {
                out.push(b'{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.write_to(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// Append `n` in decimal.
pub(crate) fn write_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `i` in decimal.
pub(crate) fn write_int(out: &mut Vec<u8>, i: i128) {
    if i < 0 {
        out.push(b'-');
    }
    match u64::try_from(i.unsigned_abs()) {
        Ok(n) => write_u64(out, n),
        Err(_) => out.extend_from_slice(i.unsigned_abs().to_string().as_bytes()),
    }
}

/// Append `s` as a string literal under the canonical escape policy:
/// `"` `\` and ASCII control characters only; everything else (including
/// non-ASCII UTF-8) passes through verbatim. Runs with nothing to escape
/// are copied whole.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        run = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\r' => out.extend_from_slice(b"\\r"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x0C => out.extend_from_slice(b"\\f"),
            _ => {
                let hex = |n: u8| HEX[usize::from(n)];
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 0xf)]);
            }
        }
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended inside a value.
    Truncated,
    /// An unexpected byte at `offset`.
    Unexpected(usize, u8),
    /// A malformed `\` escape at `offset`.
    BadEscape(usize),
    /// A malformed or non-finite number literal at `offset`.
    BadNumber(usize),
    /// A malformed `\uXXXX` (or unpaired surrogate) at `offset`.
    BadUnicode(usize),
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// Valid value followed by more non-whitespace input at `offset`.
    TrailingGarbage(usize),
    /// Input is not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Truncated => write!(f, "truncated JSON input"),
            JsonError::Unexpected(o, b) => {
                write!(f, "unexpected byte {b:#04x} at offset {o}")
            }
            JsonError::BadEscape(o) => write!(f, "bad escape at offset {o}"),
            JsonError::BadNumber(o) => write!(f, "bad number at offset {o}"),
            JsonError::BadUnicode(o) => write!(f, "bad \\u escape at offset {o}"),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonError::TrailingGarbage(o) => {
                write!(f, "trailing garbage at offset {o}")
            }
            JsonError::BadUtf8 => write!(f, "input is not valid UTF-8"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value from `input`; the whole slice must be
/// consumed (bar surrounding ASCII whitespace).
///
/// # Errors
///
/// Any malformation is a [`JsonError`]; the parser never panics, whatever
/// the input.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    // Validate UTF-8 once up front, so a bad byte is reported as such
    // before any syntax error after it.
    std::str::from_utf8(input).map_err(|_| JsonError::BadUtf8)?;
    let mut p = Scanner::new(input);
    let v = p.value(0)?;
    p.end()?;
    Ok(v)
}

/// Check that `input` is one complete JSON value, as [`parse`] does,
/// without building it: a line that is not JSON is refused in memory
/// proportional to its nesting, not its length.
///
/// # Errors
///
/// The [`JsonError`] that [`parse`] reports for `input`.
pub fn check(input: &[u8]) -> Result<(), JsonError> {
    std::str::from_utf8(input).map_err(|_| JsonError::BadUtf8)?;
    let mut p = Scanner::new(input);
    p.skip(0)?;
    p.end()
}

/// A cursor over one JSON text: the parser behind [`parse`], and the
/// single pass that decoders use to read a text without building a tree.
///
/// The grammar, the [`MAX_DEPTH`] bound and the number rules are those of
/// [`parse`]: a text the scanner walks to its end without error is one
/// [`parse`] accepts. The scanner checks UTF-8 string by string instead
/// of up front (outside strings a non-ASCII byte is a syntax error), so
/// on a bad text its error may differ from [`parse`]'s. The line
/// decoders in [`crate::msg`] therefore answer every line the scanner
/// reads to its end themselves, errors included. A line the scanner stops
/// on goes through [`check`], which words [`parse`]'s error without a
/// tree; only a line that passes it is reparsed with [`parse`].
///
/// Each value costs its length: strings are walked eight bytes at a time
/// and borrowed, with escapes decoded only when a caller asks for the
/// text ([`Text::get`]), and a plain integer of up to 19 digits goes
/// straight into a `u64`.
pub(crate) struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// The text of a string literal as it stands between its quotes: valid
/// UTF-8 with its escapes checked but not yet decoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Text<'a> {
    raw: &'a str,
    escaped: bool,
}

impl<'a> Text<'a> {
    /// A string that holds no escapes.
    pub(crate) fn plain(s: &'a str) -> Text<'a> {
        Text {
            raw: s,
            escaped: false,
        }
    }

    /// The string, unescaped: borrowed unless it holds a `\`.
    #[inline]
    pub(crate) fn get(self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(self.unescape())
        } else {
            Cow::Borrowed(self.raw)
        }
    }

    fn unescape(self) -> String {
        let mut out = String::with_capacity(self.raw.len());
        let mut s = Scanner {
            bytes: self.raw.as_bytes(),
            pos: 0,
        };
        while let Some(i) = self.raw[s.pos..].find('\\') {
            out.push_str(&self.raw[s.pos..s.pos + i]);
            s.pos += i + 1;
            out.push(
                s.escape(s.pos - 1)
                    .expect("escapes are checked when the string is scanned"),
            );
        }
        out.push_str(&self.raw[s.pos..]);
        out
    }
}

/// A number literal's value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Number {
    Int(i128),
    Float(f64),
}

impl From<Number> for Json {
    fn from(n: Number) -> Json {
        match n {
            Number::Int(i) => Json::Int(i),
            Number::Float(f) => Json::Float(f),
        }
    }
}

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The index of the first byte from `from` on that a string cannot hold
/// as it is in ASCII text: `"`, `\`, a control character or a byte that
/// is not ASCII; `bytes.len()` if there is none. Eight bytes at a time.
/// Kept out of line: a call that returns an index costs less than the
/// loop inlined into every caller of [`Scanner::text`].
#[inline(never)]
fn ascii_run_end(bytes: &[u8], from: usize) -> usize {
    const HIGH: u64 = splat(0x80);
    let mut pos = from;
    while let Some(word) = bytes.get(pos..pos + 8) {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        // The high bit of each byte that is `"` or `\` (zero after the
        // xor), below 0x20 or not ASCII. Borrows only mark bytes above the
        // first such byte, so the lowest mark is exact.
        let quote = x ^ splat(b'"');
        let slash = x ^ splat(b'\\');
        let stop = (quote.wrapping_sub(splat(1)) & !quote
            | slash.wrapping_sub(splat(1)) & !slash
            | x.wrapping_sub(splat(0x20))
            | x)
            & HIGH;
        if stop != 0 {
            return pos + (stop.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    while let Some(&b) = bytes.get(pos) {
        if !(0x20..0x80).contains(&b) || b == b'"' || b == b'\\' {
            break;
        }
        pos += 1;
    }
    pos
}

impl<'a> Scanner<'a> {
    /// A scanner at the first value of `bytes` (leading whitespace
    /// skipped).
    pub(crate) fn new(bytes: &'a [u8]) -> Scanner<'a> {
        let mut s = Scanner { bytes, pos: 0 };
        s.skip_ws();
        s
    }

    /// Skip trailing whitespace and require the end of the input.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(JsonError::TrailingGarbage(self.pos));
        }
        Ok(())
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(JsonError::Unexpected(self.pos, got)),
            None => Err(JsonError::Truncated),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        let end = self.pos + word.len();
        if end > self.bytes.len() {
            return Err(JsonError::Truncated);
        }
        if &self.bytes[self.pos..end] != word.as_bytes() {
            return Err(JsonError::Unexpected(self.pos, self.bytes[self.pos]));
        }
        self.pos = end;
        Ok(v)
    }

    /// The value at the cursor, `depth` levels down, as a tree.
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            None => Err(JsonError::Truncated),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.text().map(|s| Json::Str(s.get().into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok::<_, JsonError>(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|p, key| {
                    members.push((key.to_owned(), p.value(depth + 1)?));
                    Ok::<_, JsonError>(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::from),
            Some(b) => Err(JsonError::Unexpected(self.pos, b)),
        }
    }

    /// Step over the value at the cursor, `depth` levels down, checking
    /// it as [`value`](Scanner::value) would without building it.
    #[inline]
    pub(crate) fn skip(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'"') => self.text().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.skip_other(depth),
        }
    }

    /// Step over the value at the cursor as [`skip`](Scanner::skip) does,
    /// and return its text.
    pub(crate) fn skip_span(&mut self, depth: usize) -> Result<&'a [u8], JsonError> {
        let start = self.pos;
        self.skip(depth)?;
        Ok(&self.bytes[start..self.pos])
    }

    /// [`skip`](Scanner::skip) for an array, an object, a literal or an
    /// error.
    #[inline(never)]
    fn skip_other(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'[') => self.array(|p| p.skip(depth + 1)),
            Some(b'{') => self.object(|p, _| p.skip(depth + 1)),
            _ => self.value(depth).map(drop),
        }
    }

    /// Walk the array at the cursor: `item` is called with the cursor on
    /// each element and must consume it.
    pub(crate) fn array<E: From<JsonError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b) => return Err(JsonError::Unexpected(self.pos, b).into()),
                None => return Err(JsonError::Truncated.into()),
            }
        }
    }

    /// Walk the object at the cursor: `member` is called with each key,
    /// in order, and the cursor on its value, which it must consume. A
    /// key is borrowed from the input unless it holds a `\`.
    pub(crate) fn object<E: From<JsonError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.text()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let unescaped;
            member(
                self,
                if key.escaped {
                    unescaped = key.unescape();
                    &unescaped
                } else {
                    key.raw
                },
            )?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b) => return Err(JsonError::Unexpected(self.pos, b).into()),
                None => return Err(JsonError::Truncated.into()),
            }
        }
    }

    /// The string at the cursor, checked (UTF-8, escapes, no raw control
    /// characters) but not unescaped.
    #[inline(always)]
    pub(crate) fn text(&mut self) -> Result<Text<'a>, JsonError> {
        // Most strings are ASCII with nothing to unescape: one run, then
        // the closing quote.
        if self.peek() == Some(b'"') {
            let start = self.pos + 1;
            let end = ascii_run_end(self.bytes, start);
            if self.bytes.get(end) == Some(&b'"') {
                self.pos = end + 1;
                // SAFETY: `ascii_run_end` stops at the first byte that is
                // not ASCII.
                let raw = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..end]) };
                return Ok(Text {
                    raw,
                    escaped: false,
                });
            }
        }
        self.escaped_text()
    }

    /// [`text`](Scanner::text) for a string that holds escapes, non-ASCII
    /// characters or an error.
    #[inline(never)]
    fn escaped_text(&mut self) -> Result<Text<'a>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut escaped = false;
        loop {
            self.pos = ascii_run_end(self.bytes, self.pos);
            let at = self.pos;
            match self.peek() {
                None => return Err(JsonError::Truncated),
                Some(b'"') => {
                    self.pos += 1;
                    // SAFETY: the bytes between the quotes are ASCII runs,
                    // escapes (ASCII too) and characters checked as UTF-8
                    // below.
                    let raw = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..at]) };
                    return Ok(Text { raw, escaped });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 1;
                    self.escape(at)?;
                }
                Some(lead @ 0x80..) => {
                    // One character, its length from its lead byte.
                    let len = match lead {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    match self.bytes.get(at..at + len).map(std::str::from_utf8) {
                        Some(Ok(_)) => self.pos += len,
                        _ => return Err(JsonError::BadUtf8),
                    }
                }
                Some(b) => {
                    // Raw control characters are invalid inside strings.
                    return Err(JsonError::Unexpected(self.pos, b));
                }
            }
        }
    }

    /// The character of the escape whose `\` is at `start`; the cursor is
    /// on the byte after the `\`.
    fn escape(&mut self, start: usize) -> Result<char, JsonError> {
        let c = match self.peek() {
            None => return Err(JsonError::Truncated),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape(start);
            }
            Some(_) => return Err(JsonError::BadEscape(start)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Parse the 4 hex digits after `\u` (and a low surrogate pair if
    /// needed); `self.pos` is on the first hex digit.
    fn unicode_escape(&mut self, start: usize) -> Result<char, JsonError> {
        let hi = self.hex4(start)?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.peek() != Some(b'\\') {
                return Err(JsonError::BadUnicode(start));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(JsonError::BadUnicode(start));
            }
            self.pos += 1;
            let lo = self.hex4(start)?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(JsonError::BadUnicode(start));
            }
            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(c).ok_or(JsonError::BadUnicode(start))
        } else if (0xDC00..0xE000).contains(&hi) {
            Err(JsonError::BadUnicode(start)) // unpaired low surrogate
        } else {
            char::from_u32(hi).ok_or(JsonError::BadUnicode(start))
        }
    }

    fn hex4(&mut self, start: usize) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::Truncated);
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.pos];
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(JsonError::BadUnicode(start)),
            };
            v = (v << 4) | d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    /// The number at the cursor. A plain integer (no sign, fraction or
    /// exponent) of at most 19 digits is read straight into a `u64`;
    /// anything else takes the full grammar.
    pub(crate) fn number(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        let digits = &self.bytes[start..self.bytes.len().min(start + 19)];
        let len = digits
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(digits.len());
        let next = self.bytes.get(start + len);
        let plain = (len == 1 || len > 1 && digits[0] != b'0')
            && !matches!(next, Some(b'0'..=b'9' | b'.' | b'e' | b'E'));
        if !plain {
            return self.number_literal();
        }
        let n = digits[..len]
            .iter()
            .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0'));
        self.pos = start + len;
        Ok(Number::Int(i128::from(n)))
    }

    /// The number at the cursor under the full grammar.
    fn number_literal(&mut self) -> Result<Number, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: JSON forbids leading zeros. Its value is kept
        // while it fits a `u64`, so most integers skip the text parse.
        let mut magnitude = Some(0u64);
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    magnitude = magnitude
                        .and_then(|m| m.checked_mul(10))
                        .and_then(|m| m.checked_add(u64::from(d - b'0')));
                    self.pos += 1;
                }
            }
            Some(_) | None => return Err(JsonError::BadNumber(start)),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(JsonError::BadNumber(start)); // leading zero
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::BadNumber(start));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::BadNumber(start));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if let (false, Some(m)) = (is_float, magnitude) {
            let m = i128::from(m);
            return Ok(Number::Int(if self.bytes[start] == b'-' { -m } else { m }));
        }
        // SAFETY: a number literal is ASCII: digits, sign, dot, exponent.
        let text = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..self.pos]) };
        if is_float {
            let f: f64 = text.parse().map_err(|_| JsonError::BadNumber(start))?;
            if !f.is_finite() {
                return Err(JsonError::BadNumber(start)); // 1e999 etc.
            }
            Ok(Number::Float(f))
        } else {
            text.parse::<i128>()
                .map(Number::Int)
                .map_err(|_| JsonError::BadNumber(start))
        }
    }
}

/// Convenience: build an object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let v = parse(s.as_bytes()).unwrap();
        assert_eq!(v.serialize(), s, "canonical text must round-trip");
    }

    #[test]
    fn canonical_roundtrips() {
        roundtrip("null");
        roundtrip("true");
        roundtrip("[1,2,3]");
        roundtrip(r#"{"a":1,"b":[false,"x"],"c":{}}"#);
        roundtrip(r#""line\nbreak\t\"quoted\" \\""#);
        roundtrip("18446744073709551615"); // u64::MAX survives exactly
        roundtrip("-9223372036854775808");
        roundtrip("18446744073709551616"); // past u64: the i128 text path
        roundtrip("-170141183460469231731687303715884105728");
        roundtrip("1.5");
        // The escape policy, byte for byte: short escapes, lowercase
        // `\u00xx` for other controls, everything else verbatim.
        let s = Json::Str("a\u{1}\u{8}\u{c}\u{1f}\n\r\t\"\\/é😀\u{7f}".into());
        assert_eq!(
            s.serialize(),
            "\"a\\u0001\\b\\f\\u001f\\n\\r\\t\\\"\\\\/é😀\u{7f}\""
        );
    }

    #[test]
    fn whitespace_and_unicode_parse() {
        let v = parse(b" { \"k\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.serialize(), r#"{"k":[1,2]}"#);
        let v = parse("\"héllo\"".as_bytes()).unwrap();
        assert_eq!(v, Json::Str("héllo".into()));
        // Surrogate pair: 😀 U+1F600.
        let v = parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("😀".into()));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = parse(br#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.serialize(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn u64_addresses_survive() {
        let addr = u64::MAX - 7;
        let v = parse(addr.to_string().as_bytes()).unwrap();
        assert_eq!(v.as_u64(), Some(addr));
    }

    #[test]
    fn truncation_is_an_error() {
        let full = r#"{"method":"patch","params":{"addr":4198400}}"#;
        for cut in 0..full.len() {
            assert!(
                parse(&full.as_bytes()[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"\"ab",
            b"\"\\x\"",
            b"\"\\u12\"",
            b"\"\\ud800\"", // unpaired high surrogate
            b"\"\\ude00\"", // unpaired low surrogate
            b"01",          // leading zero
            b"1.",          // missing fraction digits
            b"1e",          // missing exponent digits
            b"1e999",       // non-finite
            b"nul",
            b"[1] x",          // trailing garbage
            b"{\"a\" 1}",      // missing colon
            b"\xff\xfe",       // invalid UTF-8
            b"\"raw\x01ctl\"", // raw control char in string
        ] {
            assert!(parse(bad).is_err(), "{bad:?} unexpectedly parsed");
            assert_eq!(check(bad), parse(bad).map(drop), "{bad:?}");
        }
    }

    #[test]
    fn check_agrees_with_parse() {
        let full = r#"{"method":"patch","params":{"addr":4198400,"l":[1,"x",null]}}"#;
        for cut in 0..=full.len() {
            let b = &full.as_bytes()[..cut];
            assert_eq!(check(b), parse(b).map(drop), "{cut}");
        }
        let bomb = "[".repeat(100_000);
        assert_eq!(check(bomb.as_bytes()), Err(JsonError::TooDeep));
        assert_eq!(check(b" [1, {\"a\": true}] "), Ok(()));
    }

    #[test]
    fn depth_bomb_is_bounded() {
        let bomb = "[".repeat(100_000);
        assert_eq!(parse(bomb.as_bytes()), Err(JsonError::TooDeep));
        let nested_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(nested_ok.as_bytes()).is_ok());
    }

    #[test]
    fn float_forms() {
        assert_eq!(parse(b"2.5e3").unwrap(), Json::Float(2500.0));
        assert_eq!(parse(b"-0.125").unwrap(), Json::Float(-0.125));
        // Floats that print integral keep a float marker.
        assert_eq!(Json::Float(1.0).serialize(), "1.0");
        assert_eq!(Json::Float(f64::NAN).serialize(), "null");
    }
}
