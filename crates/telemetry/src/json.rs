//! A minimal JSON parser, sufficient to round-trip the trace exports.
//!
//! The workspace has no registry access, so there is no serde; traces
//! are emitted by hand-formatted writers and read back through this
//! recursive-descent parser. It accepts the JSON this crate produces
//! plus ordinary interchange JSON (nested values, escapes, floats).
//!
//! One grammar, two sinks: [`parse_json`] builds the owned [`Json`] tree
//! for documents that are kept and walked; [`read_members`] hands the
//! members of a flat object (a `snicd` request line) to its caller as
//! slices of the input, so a line the daemon serves and forgets costs
//! no tree.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON value. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept exact (an
    /// `f64` rounds every integer from 2^53 up).
    Int(u64),
    /// Any other JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number
    /// below 2^64. Integer literals come back exactly as written.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) => integral(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A top-level member value as [`read_members`] hands it over: scalars
/// as they would read from the [`Json`] tree, strings as slices of the
/// input wherever it spells them without escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// What [`Json::Int`] holds.
    Int(u64),
    /// What [`Json::Num`] holds.
    Num(f64),
    /// A string literal, unescaped.
    Str(Cow<'a, str>),
    /// `null`, a boolean, an array or an object: validated and dropped.
    Other,
}

impl Scalar<'_> {
    /// As [`Json::as_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Int(n) => Some(*n),
            Scalar::Num(n) => integral(*n),
            _ => None,
        }
    }

    /// As [`Json::as_str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// `n` as a `u64`, if it is integral, non-negative and below 2^64.
fn integral(n: f64) -> Option<u64> {
    const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
    (n >= 0.0 && n.fract() == 0.0 && n < TWO_POW_64).then_some(n as u64)
}

/// Parse failure: byte offset and a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per nested container, so without a bound one hostile
/// `snicd` line of `[[[[...` overflows the stack and aborts the process
/// for every tenant. Protocol lines are flat and Chrome traces nest
/// fewer than 8 levels.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document. Trailing whitespace is allowed,
/// trailing garbage and nesting past [`MAX_DEPTH`] are errors.
pub fn parse_json(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// Parse a complete JSON document as [`parse_json`] does — the same
/// grammar, the same errors at the same offsets — building no tree:
/// when the document is an object, `member` gets each of its members in
/// source order (duplicates included); any other document only has to
/// be well-formed. Nothing is allocated except for a string the input
/// spells with escapes. On `Err`, `member` may already have seen the
/// members before the fault.
pub fn read_members<'a>(
    input: &'a str,
    member: impl FnMut(Cow<'a, str>, Scalar<'a>),
) -> Result<(), JsonError> {
    let mut p = Parser::new(input);
    if p.peek() == Some(b'{') {
        p.nested(|p| p.object(member))?;
    } else {
        p.value::<Scalar>()?;
    }
    p.end()
}

/// What the one grammar builds: an owned [`Json`] tree, or borrowed
/// [`Scalar`]s that let go of everything nested.
trait Sink<'a>: Sized {
    /// An array under construction.
    type Items: Default;
    /// An object under construction.
    type Members: Default;
    /// `null`, `true`, `false`.
    fn literal(value: Option<bool>) -> Self;
    fn int(n: u64) -> Self;
    fn num(n: f64) -> Self;
    fn str(s: Cow<'a, str>) -> Self;
    fn item(items: &mut Self::Items, value: Self);
    fn arr(items: Self::Items) -> Self;
    fn member(members: &mut Self::Members, key: Cow<'a, str>, value: Self);
    fn obj(members: Self::Members) -> Self;
}

impl Sink<'_> for Json {
    type Items = Vec<Json>;
    type Members = Vec<(String, Json)>;
    fn literal(value: Option<bool>) -> Json {
        value.map_or(Json::Null, Json::Bool)
    }
    fn int(n: u64) -> Json {
        Json::Int(n)
    }
    fn num(n: f64) -> Json {
        Json::Num(n)
    }
    fn str(s: Cow<'_, str>) -> Json {
        Json::Str(s.into_owned())
    }
    fn item(items: &mut Vec<Json>, value: Json) {
        items.push(value);
    }
    fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
    fn member(members: &mut Self::Members, key: Cow<'_, str>, value: Json) {
        members.push((key.into_owned(), value));
    }
    fn obj(members: Self::Members) -> Json {
        Json::Obj(members)
    }
}

impl<'a> Sink<'a> for Scalar<'a> {
    type Items = ();
    type Members = ();
    fn literal(_: Option<bool>) -> Self {
        Scalar::Other
    }
    fn int(n: u64) -> Self {
        Scalar::Int(n)
    }
    fn num(n: f64) -> Self {
        Scalar::Num(n)
    }
    fn str(s: Cow<'a, str>) -> Self {
        Scalar::Str(s)
    }
    fn item(_: &mut (), _: Self) {}
    fn arr(_: ()) -> Self {
        Scalar::Other
    }
    fn member(_: &mut (), _: Cow<'a, str>, _: Self) {}
    fn obj(_: ()) -> Self {
        Scalar::Other
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first byte of `input` that is not whitespace.
    fn new(input: &'a str) -> Parser<'a> {
        let mut p = Parser {
            input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// After the document: only whitespace may follow.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value<V: Sink<'a>>(&mut self) -> Result<V, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = V::Members::default();
                self.nested(|p| p.object(|key, value| V::member(&mut members, key, value)))?;
                Ok(V::obj(members))
            }
            Some(b'[') => {
                let mut items = V::Items::default();
                self.nested(|p| p.array(|value| V::item(&mut items, value)))?;
                Ok(V::arr(items))
            }
            Some(b'"') => Ok(V::str(self.string()?)),
            Some(b't') => self.literal("true", V::literal(Some(true))),
            Some(b'f') => self.literal("false", V::literal(Some(false))),
            Some(b'n') => self.literal("null", V::literal(None)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let done = container(self);
        self.depth -= 1;
        done
    }

    fn literal<V>(&mut self, word: &str, value: V) -> Result<V, JsonError> {
        if self.input.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number<V: Sink<'a>>(&mut self) -> Result<V, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(V::int(n));
        }
        text.parse::<f64>()
            .map(V::num)
            .map_err(|_| self.err("malformed number"))
    }

    /// A string literal: a slice of the input when it holds no escape,
    /// otherwise copied a run at a time around each escape. `"` and `\`
    /// are ASCII, so every run begins and ends on a character boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"', "expected string")?;
        let bytes = self.input.as_bytes();
        let mut unescaped: Option<String> = None;
        let mut run = self.pos;
        loop {
            let stop = bytes[self.pos..]
                .iter()
                .position(|b| matches!(b, b'"' | b'\\'));
            let Some(stop) = stop else {
                self.pos = bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += stop;
            let plain = &self.input[run..self.pos];
            let closing = bytes[self.pos] == b'"';
            self.pos += 1;
            if closing {
                return Ok(match unescaped {
                    None => Cow::Borrowed(plain),
                    Some(mut out) => {
                        out.push_str(plain);
                        Cow::Owned(out)
                    }
                });
            }
            let out = unescaped.get_or_insert_with(String::new);
            out.push_str(plain);
            let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    if self.pos + 4 > bytes.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    let hex = self.input.get(self.pos..self.pos + 4);
                    let hex = hex.ok_or_else(|| self.err("non-utf8 \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our
                    // writers; map lone surrogates to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
            run = self.pos;
        }
    }

    fn array<V: Sink<'a>>(&mut self, mut item: impl FnMut(V)) -> Result<(), JsonError> {
        self.eat(b'[', "expected array")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object<V: Sink<'a>>(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, V),
    ) -> Result<(), JsonError> {
        self.eat(b'{', "expected object")?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            member(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Escape a string for embedding in a JSON document (adds no quotes),
/// appending to `out`. This is the workspace's one JSON string escaper:
/// `"`, `\\`, `\n`, `\r`, `\t` get their short forms, every other
/// control character `\u00XX`; what lies between is copied a run at a
/// time.
pub fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// [`escape_into`] a fresh `String`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = parse_json(doc).expect("parse");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\ny")
        );
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let doc = |depth: usize| format!("{}1{}", open.repeat(depth), close.repeat(depth));
            assert!(parse_json(&doc(MAX_DEPTH)).is_ok(), "{open} at the limit");
            let over = parse_json(&doc(MAX_DEPTH + 1)).expect_err("one past the limit");
            assert_eq!(over.what, "nesting deeper than MAX_DEPTH");
            // The hostile shape: a full protocol line of unclosed openers.
            assert!(parse_json(&open.repeat(60 * 1024 / open.len())).is_err());
        }
    }

    #[test]
    fn u64_round_trips_within_f64_precision() {
        let v = parse_json("9007199254740992").expect("parse");
        assert_eq!(v.as_u64(), Some(1u64 << 53));
        // Integer literals are exact past 2^53, up to u64::MAX.
        for n in [(1u64 << 53) + 1, 18_446_744_073_709_551_557, u64::MAX] {
            let v = parse_json(&n.to_string()).expect("parse");
            assert_eq!(v.as_u64(), Some(n));
            assert_eq!(v.as_num(), Some(n as f64));
        }
        // Other spellings still go through f64; 2^64 rounds to nothing
        // a u64 holds, so it is refused rather than clamped.
        let u64_of = |doc| parse_json(doc).expect("parse").as_u64();
        assert_eq!(u64_of("1e3"), Some(1000));
        assert_eq!(u64_of("5.0"), Some(5));
        assert_eq!(u64_of("18446744073709551616"), None);
        assert_eq!(u64_of("-1"), None);
        assert_eq!(u64_of("0.5"), None);
    }

    /// The reader is the tree's grammar with another sink: same
    /// members, same scalars, same error at the same byte.
    #[test]
    fn read_members_sees_what_the_tree_holds() {
        let doc = r#" {"a":1,"s":"x\ny","f":2.5,"a":"again","n":null,"o":{"k":[1,{}]},"é":"é"} "#;
        let mut seen = Vec::new();
        read_members(doc, |k, v| seen.push((k, v))).expect("parse");
        let Json::Obj(members) = parse_json(doc).expect("parse") else {
            panic!("an object");
        };
        assert_eq!(seen.len(), members.len());
        for ((k, v), (key, value)) in seen.iter().zip(&members) {
            assert_eq!(k, key);
            assert_eq!((v.as_u64(), v.as_str()), (value.as_u64(), value.as_str()));
        }
        // Borrowed wherever the input spells the string plainly.
        assert!(matches!(&seen[0].0, Cow::Borrowed("a")));
        assert!(matches!(&seen[1].1, Scalar::Str(Cow::Owned(s)) if s == "x\ny"));
        assert!(matches!(&seen[6].1, Scalar::Str(Cow::Borrowed("é"))));
        // A document that is not an object has no members to hand over.
        read_members("[1,2]", |_, _| panic!("no members")).expect("well-formed");
        for bad in [
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{\"a\":tru}",
            "{} x",
            "[1,",
            "\"\\q\"",
            "\"\\u12",
            "\"\\u12é\"",
            "{\"a\":\"\\",
            "-",
            "",
        ] {
            let tree = parse_json(bad).expect_err(bad);
            assert_eq!(read_members(bad, |_, _| {}).expect_err(bad), tree, "{bad}");
        }
    }

    /// The string scan used to re-validate the rest of the input for
    /// every character it copied — quadratic, ≈ 60 ms for one 63 KiB
    /// string, in every reader of this grammar (request lines, configs,
    /// snapshot restore, Chrome traces): ≈ 36 s for the 603 below.
    /// Copied a run at a time they take ≈ 0.1 s; the bound sits between.
    #[test]
    fn long_strings_parse_in_linear_time() {
        const LEN: usize = 63 << 10;
        let start = std::time::Instant::now();
        for (spelt, means) in [("x", "x"), (r"\n\u00e9\\", "\né\\"), ("é€𝄞", "é€𝄞")] {
            let n = LEN / spelt.len();
            let (source, decoded) = (spelt.repeat(n), means.repeat(n));
            let doc = format!("{{\"k\":\"{source}\",\"{source}\":[\"{source}\"]}}");
            for _ in 0..67 {
                let v = parse_json(&doc).expect("parse");
                assert!(v.get("k").and_then(Json::as_str) == Some(&decoded[..]));
                assert!(v.get(&decoded).and_then(Json::as_arr).is_some());
                let mut members = 0;
                read_members(&doc, |_, _| members += 1).expect("parse");
                assert_eq!(members, 2);
            }
            let back = parse_json(&format!("\"{}\"", escape(&decoded)));
            assert!(
                back == Ok(Json::Str(decoded)),
                "{spelt} escapes and parses back"
            );
        }
        let took = start.elapsed();
        assert!(took.as_secs_f64() < 2.0, "201 long documents took {took:?}");
    }

    #[test]
    fn escapes_round_trip() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        let doc = format!("\"{s}\"");
        assert_eq!(
            parse_json(&doc).expect("parse").as_str(),
            Some("a\"b\\c\nd\u{1}")
        );
    }
}
