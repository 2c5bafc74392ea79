//! The `snicd` wire protocol: line-delimited JSON requests and
//! responses.
//!
//! One request per line, one response per completed request. Requests
//! are read with the workspace's own JSON grammar through its borrowed
//! sink, `snic_telemetry::read_members` (there is no serde, and a line
//! that is served and forgotten builds no tree); responses are
//! hand-rendered, each straight into its one buffer, in a canonical
//! member order (`id`, `tenant`, `op`, `ok`, then op-specific fields)
//! so transcripts are byte-stable and diffable.
//!
//! Every rejection carries a typed, stable `code` from [`codes`]; the
//! human-readable `error` text may evolve, the codes may not (CI and
//! the exit-code table in the README key off them).

use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{BufRead, Read};

use snic_telemetry::json::escape_into;
use snic_telemetry::{read_members, Scalar};

/// Stable rejection codes. These are API: tests, the soak gate, and
/// `snicctl script`'s refusals key off them.
pub mod codes {
    /// The tenant's bounded queue is full; the request was shed.
    pub const OVERLOADED: &str = "SERVE-OVERLOADED";
    /// The tenant's token bucket is empty; slow down.
    pub const RATE_LIMITED: &str = "SERVE-RATE-LIMITED";
    /// The tenant's queue is frozen after a fault attributed to it;
    /// `reclaim` thaws it.
    pub const FROZEN: &str = "SERVE-FROZEN";
    /// The request's deadline passed — either while queued (never
    /// executed) or mid-launch (cancelled between retries, with the
    /// device rolled back to its pre-call resource snapshot).
    pub const EXPIRED: &str = "SERVE-EXPIRED";
    /// The tenant is at its live-NF quota.
    pub const QUOTA: &str = "SERVE-QUOTA";
    /// Malformed request: bad JSON, unknown op, missing field.
    pub const BAD_REQUEST: &str = "SERVE-BAD-REQUEST";
    /// The daemon is draining and admits no new work.
    pub const DRAINING: &str = "SERVE-DRAINING";
    /// The device refused the operation (a `SnicError` that is neither
    /// transient nor a deadline); the `error` field carries it.
    pub const FAULT: &str = "SERVE-FAULT";
    /// Every retry attempt in the policy budget failed transiently.
    pub const RETRIES_EXHAUSTED: &str = "SERVE-RETRIES-EXHAUSTED";
    /// The named NF does not exist for this tenant.
    pub const UNKNOWN_NF: &str = "SERVE-UNKNOWN-NF";
    /// The line's tick would carry the simulated clock past its u64
    /// picoseconds; the line was refused without effect.
    pub const CLOCK_EXHAUSTED: &str = "SERVE-CLOCK-EXHAUSTED";
}

/// A parsed request line, borrowed from it: every string is a slice of
/// the line (owned only where the line spells it with escapes), and
/// nested values — which no verb reads — are validated and dropped.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// The operation name (`launch`, `send`, `drain`, ...).
    pub op: Cow<'a, str>,
    /// The requesting tenant; empty for daemon-wide management ops.
    pub tenant: Cow<'a, str>,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Every top-level member in source order, for op-specific
    /// parameters.
    members: Vec<(Cow<'a, str>, Scalar<'a>)>,
}

/// The first member called `key`: a repeated key reads as its first
/// occurrence, as it did in the tree.
fn first<'m, 'a>(members: &'m [(Cow<'a, str>, Scalar<'a>)], key: &str) -> Option<&'m Scalar<'a>> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

impl Request<'_> {
    /// An op-specific `u64` parameter.
    pub fn num(&self, key: &str) -> Option<u64> {
        first(&self.members, key).and_then(Scalar::as_u64)
    }

    /// An op-specific integer parameter narrowed to `T`. A value `T`
    /// cannot hold is an error naming the key — never a silent wrap
    /// (`"port":65616` must not route to port 80).
    pub fn int<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        self.num(key)
            .map(|n| T::try_from(n).map_err(|_| format!("\"{key}\" out of range: {n}")))
            .transpose()
    }

    /// An op-specific string parameter.
    pub fn str(&self, key: &str) -> Option<&str> {
        first(&self.members, key).and_then(Scalar::as_str)
    }
}

/// Parse one request line. `Err` carries text for a
/// [`codes::BAD_REQUEST`] response.
pub fn parse_request(line: &str) -> Result<Request<'_>, String> {
    let mut members = Vec::with_capacity(8);
    read_members(line, |key, value| members.push((key, value))).map_err(|e| e.to_string())?;
    let text = |key| match first(&members, key) {
        Some(Scalar::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let op = text("op").ok_or("missing \"op\"")?;
    let tenant = text("tenant").unwrap_or_default();
    let id = first(&members, "id").and_then(Scalar::as_u64).unwrap_or(0);
    Ok(Request {
        op,
        tenant,
        id,
        members,
    })
}

/// Escape a string for inclusion in a JSON literal.
pub fn esc(s: &str) -> String {
    snic_telemetry::json::escape(s)
}

/// Begin a response line in `out`: `{"id":..,"tenant":..,"op":..`, the
/// tenant only when there is one.
pub(crate) fn head(out: &mut String, id: u64, tenant: &str, op: &str) {
    let _ = write!(out, "{{\"id\":{id}");
    if !tenant.is_empty() {
        out.push_str(",\"tenant\":\"");
        escape_into(out, tenant);
        out.push('"');
    }
    out.push_str(",\"op\":\"");
    escape_into(out, op);
    out.push('"');
}

/// What follows [`head`] and the extras of a success response.
pub(crate) const OK: &str = ",\"ok\":true";

/// Append one success extra, `,"key":value`, to a response line.
pub(crate) fn extra(out: &mut String, key: &str, value: impl std::fmt::Display) {
    let _ = write!(out, ",\"{key}\":{value}");
}

/// What follows [`head`] in a typed rejection, up to the closing brace.
pub(crate) fn refusal(out: &mut String, code: &str, error: &str) {
    let _ = write!(out, ",\"ok\":false,\"code\":\"{code}\",\"error\":\"");
    escape_into(out, error);
    out.push('"');
}

/// Render a success response. `extras` are `(key, raw JSON fragment)`
/// pairs appended in order — the caller is responsible for fragment
/// validity (use [`esc`] for strings).
pub fn accept(id: u64, tenant: &str, op: &str, extras: &[(&str, String)]) -> String {
    let mut s = String::with_capacity(96);
    head(&mut s, id, tenant, op);
    s.push_str(OK);
    for (k, v) in extras {
        extra(&mut s, k, v);
    }
    s.push('}');
    s
}

/// Render a typed rejection response.
pub fn reject(id: u64, tenant: &str, op: &str, code: &str, error: &str) -> String {
    let mut s = String::with_capacity(128);
    head(&mut s, id, tenant, op);
    refusal(&mut s, code, error);
    s.push('}');
    s
}

/// Longest request line (excluding its newline) the line pump accepts.
/// Every protocol line is a short flat JSON object: the soak schedule's
/// longest is 87 bytes and `benchmark/`'s scripts stay under 100, so
/// 64 KiB leaves three orders of magnitude of headroom while bounding
/// what one client can make the daemon buffer.
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// Read newline-delimited request lines from `input` until end of
/// stream, handing each to `on_line`: `Ok(line)` for a line to serve
/// (newline and any `\r` before it stripped), `Err(response)` for the
/// single [`codes::BAD_REQUEST`] response (id 0) that answers a line
/// longer than [`MAX_LINE_BYTES`] or not UTF-8. Such a line must only be
/// answered — never journaled or ingested — so the daemon's state is
/// what it would be had the line not been sent. At most
/// `MAX_LINE_BYTES + 1` bytes are buffered whatever the peer sends; the
/// rest of an over-long line is discarded up to its newline.
///
/// Returns the first error of `on_line`, or a read error as text.
pub fn pump_lines<R: BufRead>(
    mut input: R,
    mut on_line: impl FnMut(Result<&str, &str>) -> Result<(), String>,
) -> Result<(), String> {
    let refusal = |why: String| reject(0, "", "?", codes::BAD_REQUEST, &why);
    let mut buf = Vec::new();
    let mut read_bounded = |buf: &mut Vec<u8>| {
        buf.clear();
        input
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', buf)
            .map_err(|e| format!("read: {e}"))
    };
    while read_bounded(&mut buf)? > 0 {
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            while read_bounded(&mut buf)? > 0 && buf.last() != Some(&b'\n') {}
            let why = format!("line exceeds {MAX_LINE_BYTES} bytes");
            on_line(Err(&refusal(why)))?;
            continue;
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        match std::str::from_utf8(&buf) {
            Ok(line) => on_line(Ok(line))?,
            Err(e) => on_line(Err(&refusal(format!("line is not UTF-8: {e}"))))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snic_telemetry::{parse_json, Json};

    #[test]
    fn request_round_trip() {
        let r = parse_request(r#"{"op":"launch","tenant":"a","id":7,"mem":8,"name":"fw"}"#)
            .expect("parse");
        assert_eq!(r.op, "launch");
        assert_eq!(r.tenant, "a");
        assert_eq!(r.id, 7);
        assert_eq!(r.num("mem"), Some(8));
        assert_eq!(r.str("name"), Some("fw"));
        assert_eq!(r.num("missing"), None);
        assert_eq!(r.int::<u16>("mem"), Ok(Some(8)));
        assert_eq!(r.int::<u16>("missing"), Ok(None));
        // Integers arrive exactly as sent, or not at all.
        let r =
            parse_request(r#"{"op":"send","id":9007199254740993,"port":65616}"#).expect("parse");
        assert_eq!(r.id, 9_007_199_254_740_993);
        assert!(accept(r.id, "", "send", &[]).starts_with(r#"{"id":9007199254740993,"#));
        assert_eq!(r.num("port"), Some(65_616));
        let err = r.int::<u16>("port").expect_err("65616 is no port");
        assert!(err.contains("\"port\"") && err.contains("65616"), "{err}");
    }

    /// What `parse_request` was before it read lines in place: the
    /// owned tree, then lookups in it. The oracle of the differential
    /// below.
    fn tree_request(line: &str) -> Result<(String, String, u64, Json), String> {
        let body = parse_json(line).map_err(|e| e.to_string())?;
        let text = |key| body.get(key).and_then(Json::as_str);
        let op = text("op").ok_or("missing \"op\"")?.to_string();
        let tenant = text("tenant").unwrap_or("").to_string();
        let id = body.get("id").and_then(Json::as_u64).unwrap_or(0);
        Ok((op, tenant, id, body))
    }

    /// Keys as a line spells them; several spell the same key, so
    /// duplicates — across spellings too — are common.
    const KEYS: &[&str] = &[
        "op",
        "op",
        "tenant",
        "id",
        "id",
        "count",
        "port",
        "name",
        "\\u006fp",
        "i\\u0064",
        "é",
        "a\\nb",
        "",
        "ten\\u0061nt",
    ];
    /// The same, decoded, plus one no line holds.
    const LOOKUPS: &[&str] = &[
        "op", "tenant", "id", "count", "port", "name", "é", "a\nb", "", "absent",
    ];
    /// Member values as a line spells them: strings plain and escaped
    /// (`\u` pairs, a lone surrogate, the `+` `from_str_radix` lets
    /// through), integers around 2^53 and 2^64, floats, `-0`, literals,
    /// nested values no verb reads, and values that are not JSON.
    const VALUES: &[&str] = &[
        r#""send""#,
        r#""t0""#,
        r#""nf""#,
        r#""""#,
        r#""a b\téé""#,
        r#""q\"\\\/\b\f\n\r\t""#,
        r#""\u00e9\u0041""#,
        r#""\ud83d\ude00""#,
        r#""\udc00x""#,
        r#""\u+041""#,
        "0",
        "7",
        "80",
        "65535",
        "65536",
        "4294967296",
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "18446744073709551617",
        "3.0",
        "2e3",
        "0.5",
        "1e400",
        "-0",
        "-0.0",
        "-1",
        "1E2",
        "01",
        "true",
        "false",
        "null",
        "[]",
        "{}",
        r#"[1,{"a":null}]"#,
        r#"{"op":"inner","id":[9]}"#,
        "[[[[[[1]]]]]]",
        "tru",
        "nul",
        "1.2.3",
        "-",
        "+1",
        r#""\q""#,
        r#""\u12""#,
        r#""\u12é4""#,
        r#""open"#,
        "[1,]",
        r#"{"a"}"#,
        "",
    ];
    const GAPS: &[&str] = &["", "", "", " ", "\t", " \r\n "];
    const TAILS: &[&str] = &["", "", "", " ", "x", "}", ",", " {}", "\u{0}"];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4_000))]

        /// The borrowed reader and the tree parser are one grammar: on
        /// any line, the same error text or the same answer to every
        /// lookup a verb can make.
        #[test]
        fn request_reader_answers_as_the_tree_parser(
            members in proptest::collection::vec(
                (0..KEYS.len(), 0..VALUES.len(), 0..GAPS.len(), 0..GAPS.len()),
                0..9,
            ),
            shape in 0u8..16,
            cut in 0usize..400,
            tail in 0..TAILS.len(),
        ) {
            let gap = |i: usize| GAPS[i];
            let mut line = String::from(gap(cut % GAPS.len()));
            match shape {
                // Documents that are not objects: they parse, and hold no op.
                0 => line.push_str(VALUES[cut % VALUES.len()]),
                1 => line.push_str(r#"["op","send"]"#),
                _ => {
                    line.push('{');
                    for (i, &(key, value, before, after)) in members.iter().enumerate() {
                        let comma = if i > 0 { "," } else { "" };
                        let (before, after) = (gap(before), gap(after));
                        let (key, value) = (KEYS[key], VALUES[value]);
                        line.push_str(&format!("{comma}{before}\"{key}\"{after}:{before}{value}{after}"));
                    }
                    line.push('}');
                }
            }
            line.push_str(TAILS[tail]);
            // Every fourth line is truncated, anywhere a character ends.
            if shape % 4 == 3 {
                let mut at = cut.min(line.len());
                while !line.is_char_boundary(at) {
                    at -= 1;
                }
                line.truncate(at);
            }

            match (parse_request(&line), tree_request(&line)) {
                (Err(reader), Err(tree)) => proptest::prop_assert_eq!(reader, tree, "{}", line),
                (Ok(req), Ok((op, tenant, id, body))) => {
                    proptest::prop_assert_eq!((&*req.op, &*req.tenant, req.id), (&*op, &*tenant, id));
                    for key in LOOKUPS {
                        let member = body.get(key);
                        let num = member.and_then(Json::as_u64);
                        proptest::prop_assert_eq!(req.num(key), num, "{} in {}", key, line);
                        proptest::prop_assert_eq!(req.str(key), member.and_then(Json::as_str));
                        let narrow = num.map(|n| u16::try_from(n).map_err(|_| n)).transpose();
                        let narrowed = req.int::<u16>(key).map_err(|_| req.num(key).expect("a number"));
                        proptest::prop_assert_eq!(narrowed, narrow);
                    }
                }
                (reader, tree) => proptest::prop_assert!(
                    false, "{}: reader {:?}, tree {:?}", line, reader, tree.map(|t| (t.0, t.1, t.2))
                ),
            }
        }
    }

    #[test]
    fn missing_op_is_an_error() {
        assert!(parse_request(r#"{"tenant":"a"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn responses_are_canonical_and_parse_back() {
        let ok = accept(3, "a", "launch", &[("nf", "5".into())]);
        assert_eq!(
            ok,
            r#"{"id":3,"tenant":"a","op":"launch","ok":true,"nf":5}"#
        );
        let no = reject(4, "", "drain", codes::DRAINING, "already draining");
        assert_eq!(
            no,
            r#"{"id":4,"op":"drain","ok":false,"code":"SERVE-DRAINING","error":"already draining"}"#
        );
        for line in [&ok, &no] {
            parse_json(line).expect("responses must be valid JSON");
        }
    }

    #[test]
    fn escapes_are_applied() {
        let r = reject(1, "t\"x", "op", codes::FAULT, "line\nbreak\t\"q\"");
        let parsed = parse_json(&r).expect("valid");
        assert_eq!(parsed.get("tenant").and_then(Json::as_str), Some("t\"x"));
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("line\nbreak\t\"q\"")
        );
    }

    #[test]
    fn pump_refuses_hostile_lines_without_touching_the_daemon() {
        use crate::daemon::{Daemon, DaemonConfig};
        use crate::snapshot::{state_digest, transcript_digest};

        // Well-framed but hostile: short enough for the pump to hand
        // over, nested deeply enough to overflow an unbounded recursive
        // parser. The daemon refuses it like any other bad request, so
        // it is history the line-by-line oracle below ingests too.
        let deep = "[".repeat(60 * 1024);
        let framed = [
            r#"{"op":"register","tenant":"a","id":1}"#,
            deep.as_str(),
            r#"{"op":"health","id":2}"#,
        ];
        let mut input = Vec::new();
        input.extend_from_slice(framed[0].as_bytes());
        input.extend_from_slice(b"\n\xff\xfe{\r\n");
        input.resize(input.len() + 100 * 1024, b'a');
        input.push(b'\n');
        input.extend_from_slice(framed[1].as_bytes());
        input.push(b'\n');
        input.extend_from_slice(framed[2].as_bytes()); // no trailing newline

        let mut daemon = Daemon::new(DaemonConfig::default());
        let mut responses = Vec::new();
        pump_lines(&input[..], |line| {
            match line {
                Ok(line) => responses.extend(daemon.ingest(line)),
                Err(refusal) => responses.push(refusal.to_string()),
            }
            Ok(())
        })
        .expect("in-memory reads cannot fail");

        let code = |r: &String| {
            let parsed = parse_json(r).expect("responses are JSON");
            parsed
                .get("code")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let codes: Vec<_> = responses.iter().map(code).collect();
        let bad = Some(codes::BAD_REQUEST.to_string());
        assert_eq!(
            codes,
            [None, bad.clone(), bad.clone(), bad, None],
            "{responses:#?}"
        );
        assert!(responses[1].starts_with(r#"{"id":0,"#), "{}", responses[1]);

        let mut oracle = Daemon::new(DaemonConfig::default());
        for line in framed {
            oracle.ingest(line);
        }
        assert_eq!(daemon.history(), oracle.history());
        assert_eq!(state_digest(&daemon), state_digest(&oracle));
        assert_eq!(transcript_digest(&daemon), transcript_digest(&oracle));
    }

    #[test]
    fn pump_line_length_boundary_and_callback_errors() {
        // Exactly MAX_LINE_BYTES is served; one more byte is refused,
        // with or without a newline behind it.
        let at = "x".repeat(MAX_LINE_BYTES);
        let over = "x".repeat(MAX_LINE_BYTES + 1);
        for (input, served) in [
            (format!("{at}\n"), true),
            (at.clone(), true),
            (format!("{over}\n"), false),
            (over.clone(), false),
        ] {
            let mut seen = Vec::new();
            pump_lines(input.as_bytes(), |line| {
                seen.push(line.map(str::len).map_err(str::len));
                Ok(())
            })
            .expect("pump");
            assert_eq!(seen.len(), 1);
            assert_eq!(seen[0].ok(), served.then_some(MAX_LINE_BYTES));
        }
        // The callback's error stops the pump.
        let mut calls = 0;
        let stopped = pump_lines(&b"a\nb\n"[..], |_| {
            calls += 1;
            Err("stop".to_string())
        });
        assert_eq!((stopped, calls), (Err("stop".to_string()), 1));
    }
}
