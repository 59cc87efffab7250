//! The workspace's one JSON codec. The workspace builds offline (no
//! serde) and everything a user hands the tools or reads back from them
//! is JSON — scenarios, `lucidc serve` requests and replies, `sim --json`
//! reports, `--json-diagnostics`, every figure binary — so the format
//! lives here, in the lowest crate, and every decoder and emitter above
//! is a caller:
//!
//! * [`parse`] reads text into a [`Json`] tree (recursive descent,
//!   line/column errors, nesting bounded by [`MAX_DEPTH`]);
//! * [`Cursor`] walks a tree and knows where it is: a schema error names
//!   its `$.events[3].args[1]` path, but the string is only rendered
//!   inside [`Cursor::err`] — decoding a well-formed document builds none;
//! * [`Writer`] appends one document to a caller-owned `String`, placing
//!   commas itself and sending every string through the one escape table
//!   ([`escape`]).

use std::fmt::{self, Write as _};

// ------------------------------------------------------------------ tree

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Field order is preserved (useful for error paths).
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a bool",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }
}

// ---------------------------------------------------------------- parser

/// The text is not well-formed JSON; `line`/`col` are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub line: usize,
    pub col: usize,
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse`] accepts. Authored documents
/// nest 6 deep; the bound keeps a hostile line of `[[[[…` a structured
/// error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// The bracketed, comma-separated body objects and arrays share
    /// (`pos` is on the opening bracket); `item` reads one element.
    fn sequence(
        &mut self,
        close: u8,
        kind: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => {
                        let close = close as char;
                        return Err(self.err(format!("expected `,` or `{close}` in {kind}")));
                    }
                }
            }
        }
        self.depth -= 1;
        self.pos += 1;
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        let mut fields = Vec::new();
        self.sequence(b'}', "object", |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        let mut items = Vec::new();
        self.sequence(b']', "array", |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is &str, so
                    // boundaries are valid). KNOWN DEFECT, kept on purpose:
                    // this re-validates the rest of the document per
                    // character, so parsing is quadratic. The fix (scan to
                    // the next quote or backslash, `push_str` the run) is
                    // held back until the repo benchmark stops charging
                    // throughput to `peak_rss_mb` — see CHANGES.md, PR 13.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("peeked");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The `uXXXX` after a backslash (`pos` is on the `u`). A high
    /// surrogate directly followed by an escaped low one combines into
    /// the non-BMP scalar; a lone surrogate decodes to U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let after_high = self.pos;
            self.pos += 1;
            let low = self.hex4()?;
            if (0xDC00..0xE000).contains(&low) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
                self.pos = after_high;
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Exactly four hex digits after the `u` at `pos`.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos + 1..self.pos + 5) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut code = 0;
        for &d in digits {
            let Some(nibble) = (d as char).to_digit(16) else {
                return Err(self.err("bad \\u escape"));
            };
            code = code * 16 + nibble;
        }
        self.pos += 5;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

// ---------------------------------------------------------------- reader

/// The document is well-formed JSON but a node does not fit the schema
/// its reader expects; `path` is the node's `$.a[i].b` location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    pub path: String,
    pub msg: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`: {}", self.path, self.msg)
    }
}

impl std::error::Error for PathError {}

#[derive(Debug, Clone, Copy)]
enum Seg<'a> {
    Key(&'a str),
    Index(usize),
}

/// A borrowed position in a [`Json`] tree: the node plus a link to the
/// cursor it was reached from. Typed accessors name a field once
/// (`ev.req("switch")?.u64()?`); the location costs nothing until an
/// error asks for it.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    node: &'a Json,
    from: Option<(&'a Cursor<'a>, Seg<'a>)>,
}

/// The largest integer an `f64` carries exactly (2^53 − 1): past it,
/// distinct literals read back as the same number.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_991.0;

impl<'a> Cursor<'a> {
    /// The document root, `$`.
    pub fn root(node: &'a Json) -> Cursor<'a> {
        Cursor { node, from: None }
    }

    pub fn node(&self) -> &'a Json {
        self.node
    }

    /// An error located at this node — the only place a path is rendered.
    pub fn err(&self, msg: impl Into<String>) -> PathError {
        let mut path = String::new();
        self.render_path(&mut path);
        PathError {
            path,
            msg: msg.into(),
        }
    }

    fn render_path(&self, out: &mut String) {
        match self.from {
            None => out.push('$'),
            Some((parent, seg)) => {
                parent.render_path(out);
                let _ = match seg {
                    Seg::Key(k) => write!(out, ".{k}"),
                    Seg::Index(i) => write!(out, "[{i}]"),
                };
            }
        }
    }

    fn expected(&self, what: &str) -> PathError {
        self.err(format!("expected {what}, found {}", self.node.kind()))
    }

    fn fields(&self) -> Result<&'a [(String, Json)], PathError> {
        match self.node {
            Json::Obj(fields) => Ok(fields),
            _ => Err(self.expected("an object")),
        }
    }

    /// The fields of an object, in document order.
    pub fn obj(
        &'a self,
    ) -> Result<impl ExactSizeIterator<Item = (&'a str, Cursor<'a>)>, PathError> {
        Ok(self.fields()?.iter().map(move |(k, node)| {
            let from = Some((self, Seg::Key(k)));
            (k.as_str(), Cursor { node, from })
        }))
    }

    /// The elements of an array.
    pub fn arr(&'a self) -> Result<impl ExactSizeIterator<Item = Cursor<'a>>, PathError> {
        match self.node {
            Json::Arr(items) => Ok(items.iter().enumerate().map(move |(i, node)| Cursor {
                node,
                from: Some((self, Seg::Index(i))),
            })),
            _ => Err(self.expected("an array")),
        }
    }

    pub fn str(&self) -> Result<&'a str, PathError> {
        match self.node {
            Json::Str(s) => Ok(s),
            _ => Err(self.expected("a string")),
        }
    }

    /// A non-negative integer no larger than 2^53 − 1.
    pub fn u64(&self) -> Result<u64, PathError> {
        match *self.node {
            Json::Num(n) if n < 0.0 || n.fract() != 0.0 => {
                Err(self.err(format!("expected a non-negative integer, found {n}")))
            }
            Json::Num(n) if n > MAX_SAFE_INT => Err(self.err(format!(
                "expected an integer no larger than 2^53 - 1 ({MAX_SAFE_INT}), found {n}"
            ))),
            Json::Num(n) => Ok(n as u64),
            _ => Err(self.expected("a number")),
        }
    }

    pub fn f64(&self) -> Result<f64, PathError> {
        match self.node {
            Json::Num(n) => Ok(*n),
            _ => Err(self.expected("a number")),
        }
    }

    pub fn bool(&self) -> Result<bool, PathError> {
        match self.node {
            Json::Bool(b) => Ok(*b),
            _ => Err(self.expected("a bool")),
        }
    }

    /// The field `key`, if this node is an object that has it.
    pub fn get(&'a self, key: &'a str) -> Option<Cursor<'a>> {
        let Json::Obj(fields) = self.node else {
            return None;
        };
        let (_, node) = fields.iter().find(|(k, _)| k == key)?;
        Some(Cursor {
            node,
            from: Some((self, Seg::Key(key))),
        })
    }

    /// The field `key` of an object; its absence is an error here.
    pub fn req(&'a self, key: &'a str) -> Result<Cursor<'a>, PathError> {
        self.fields()?;
        self.get(key)
            .ok_or_else(|| self.err(format!("missing required field `{key}`")))
    }

    /// This node is an object with no field outside `allowed`.
    pub fn only(&self, allowed: &[&str]) -> Result<(), PathError> {
        match self
            .fields()?
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            None => Ok(()),
            Some((k, _)) => Err(self.err(format!(
                "unknown field `{k}` (expected one of: {})",
                allowed.join(", ")
            ))),
        }
    }
}

// ---------------------------------------------------------------- writer

/// Escape a string's content for embedding inside a JSON string literal
/// (quotes, backslashes, control characters; surrounding quotes not
/// included) — the workspace's one escape table.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    // Every escaped character is ASCII, so a byte scan is UTF-8 safe and
    // the clean runs between escapes are copied whole.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(escaped);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Render one document into a fresh `String`.
pub fn write(doc: impl FnOnce(&mut Writer)) -> String {
    let mut out = String::new();
    doc(&mut Writer::new(&mut out));
    out
}

/// An append-only JSON emitter over a caller-owned `String`: no
/// whitespace, no intermediate buffers. Every method appends one token
/// (or, for [`obj`](Writer::obj)/[`arr`](Writer::arr), one balanced
/// container around what the closure appends) and places the comma
/// before it when one is due, so callers never join fragments. Keys and
/// values must alternate inside an object; the writer does not check.
pub struct Writer<'a> {
    out: &'a mut String,
    start: usize,
}

impl<'a> Writer<'a> {
    pub fn new(out: &'a mut String) -> Writer<'a> {
        let start = out.len();
        Writer { out, start }
    }

    /// A comma is due unless this token opens the document or follows an
    /// opening bracket or a key's colon.
    fn sep(&mut self) {
        let last = self.out.as_bytes().last();
        if self.out.len() > self.start && !matches!(last, Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    /// Append one scalar token, whatever its rendering.
    fn token(&mut self, text: fmt::Arguments) -> &mut Self {
        self.sep();
        let _ = self.out.write_fmt(text);
        self
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.sep();
        self.out.push(open);
        body(self);
        self.out.push(close);
        self
    }

    pub fn obj(&mut self, fields: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', fields)
    }

    pub fn arr(&mut self, items: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', items)
    }

    /// An object key; the next token appended is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.str(k);
        self.out.push(':');
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        escape_into(self.out, s);
        self.out.push('"');
        self
    }

    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.token(format_args!("{n}"))
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.token(format_args!("{b}"))
    }

    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// A float with `places` fractional digits; NaN and the infinities,
    /// which JSON cannot carry, degrade to `null`.
    pub fn f64(&mut self, v: f64, places: usize) -> &mut Self {
        if v.is_finite() {
            self.token(format_args!("{v:.places$}"))
        } else {
            self.null()
        }
    }

    /// A 64-bit digest as a 16-digit lowercase hex string.
    pub fn hex64(&mut self, v: u64) -> &mut Self {
        self.token(format_args!("\"{v:016x}\""))
    }

    /// Splice an already-rendered JSON value in verbatim.
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.token(format_args!("{fragment}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.msg, "nesting deeper than 128");
        assert_eq!((err.line, err.col), (1, MAX_DEPTH + 1));
        // Objects count too, and a hostile line never reaches the stack.
        let deep = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting deeper than 128");
        assert_eq!(
            parse(&"[".repeat(100_000)).unwrap_err().msg,
            "nesting deeper than 128"
        );
    }

    #[test]
    fn cursor_renders_paths_only_in_errors() {
        let doc = parse(r#"{"events": [{"args": [1, "x"]}], "n": 9007199254740993}"#).unwrap();
        let root = Cursor::root(&doc);
        let events = root.req("events").unwrap();
        let ev = events.arr().unwrap().next().unwrap();
        let args = ev.req("args").unwrap();
        let mut it = args.arr().unwrap();
        assert_eq!(it.next().unwrap().u64(), Ok(1));
        let e = it.next().unwrap().u64().unwrap_err();
        assert_eq!(e.path, "$.events[0].args[1]");
        assert_eq!(e.msg, "expected a number, found a string");
        assert_eq!(ev.req("time_ns").unwrap_err().path, "$.events[0]");
        assert_eq!(ev.only(&["arg"]).unwrap_err().path, "$.events[0]");
        assert_eq!(
            events.req("x").unwrap_err().msg,
            "expected an object, found an array"
        );
        // 2^53 + 1 reads back as 2^53: refused, not silently rounded.
        let e = root.req("n").unwrap().u64().unwrap_err();
        assert!(e.msg.contains("no larger than 2^53 - 1"), "{}", e.msg);
        let max = parse("9007199254740991").unwrap();
        assert_eq!(Cursor::root(&max).u64(), Ok((1 << 53) - 1));
    }

    #[test]
    fn writer_places_commas_and_escapes() {
        let mut out = String::from("x=");
        Writer::new(&mut out).obj(|w| {
            w.key("s").str("a\"b\\c\n\u{1}");
            w.key("n")
                .u64(7)
                .key("f")
                .f64(1.5, 4)
                .key("nan")
                .f64(f64::NAN, 4);
            w.key("d").hex64(0xbeef).key("b").bool(true).key("z").null();
            w.key("a").arr(|w| {
                w.u64(1).obj(|_| {}).raw("[2]").arr(|_| {});
            });
        });
        assert_eq!(
            out,
            "x={\"s\":\"a\\\"b\\\\c\\n\\u0001\",\"n\":7,\"f\":1.5000,\"nan\":null,\
             \"d\":\"000000000000beef\",\"b\":true,\"z\":null,\"a\":[1,{},[2],[]]}"
        );
    }
}
