//! `.snic` scripts, lowered onto the wire protocol.
//!
//! A script line is a [`VERBS`] row's name, at most one bare word (filed
//! under the row's `positional` key) and `key=value` pairs; `#` starts a
//! comment. [`lower`] turns each into the request line a client would
//! send — all-digit values as JSON numbers, the rest as strings, the
//! tenant `script`, the id the script line number — so a script runs on
//! the daemon proper and every verb is scriptable:
//!
//! ```text
//! launch fw core=0 mem=16 port=80
//! {"op":"launch","tenant":"script","id":1,"name":"fw","core":0,"mem":16,"port":80}
//! ```
//!
//! `nic snic|commodity`, before the first op, picks the device
//! personality the daemon boots with.

use snic_core::config::NicMode;

use crate::daemon::{mode_named, DaemonConfig, VERBS};
use crate::protocol::esc;

/// The tenant every script line is sent as.
const TENANT: &str = "script";

/// Lower a script to the device personality it selects and its request
/// lines, in order. Reads the verb table and nothing else: no line is
/// executed. `Err` names the offending line.
pub fn lower(script: &str) -> Result<(NicMode, Vec<String>), String> {
    let mut mode = DaemonConfig::default().mode;
    let mut requests = Vec::new();
    for (lineno, line) in (1..).zip(script.lines()) {
        let at = |why: String| format!("line {lineno}: {why}");
        let mut words = line.split('#').next().unwrap_or("").split_whitespace();
        let Some(name) = words.next() else { continue };
        if name == "nic" {
            let named = words.next().and_then(mode_named);
            mode = named
                .filter(|_| words.next().is_none() && requests.is_empty())
                .ok_or_else(|| at("expected `nic snic|commodity` before the first op".into()))?;
            continue;
        }
        let verb = VERBS
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| at(format!("unknown verb '{name}'")))?;
        let mut request = format!("{{\"op\":\"{name}\",\"tenant\":\"{TENANT}\",\"id\":{lineno}");
        let mut positional = verb.positional;
        for word in words {
            let (key, value) = match word.split_once('=') {
                Some((key, value)) => (key, value),
                None => match positional.take() {
                    Some(key) => (key, word),
                    None => return Err(at(format!("'{name}' takes no bare '{word}'"))),
                },
            };
            if value.is_empty() || ["", "op", "tenant", "id"].contains(&key) {
                return Err(at(format!("expected key=value, got '{word}'")));
            }
            request.push_str(&format!(",\"{}\":", esc(key)));
            match value.parse::<u64>() {
                Ok(n) => request.push_str(&n.to_string()),
                Err(_) => request.push_str(&format!("\"{}\"", esc(value))),
            }
        }
        request.push('}');
        requests.push(request);
    }
    Ok((mode, requests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;
    use snic_telemetry::Json;

    #[test]
    fn lowering_matches_the_documented_form() {
        let (mode, requests) =
            lower("# demo\nnic commodity\n\nlaunch fw core=0 mem=16 port=80 # note\n").unwrap();
        assert_eq!(mode, NicMode::Commodity);
        assert_eq!(
            requests,
            [r#"{"op":"launch","tenant":"script","id":4,"name":"fw","core":0,"mem":16,"port":80}"#]
        );
        // Values that are not integers travel as strings, escaped.
        let (mode, requests) = lower("inject-fault site=rx kind=nf-crash after=2\n").unwrap();
        assert_eq!(mode, NicMode::Snic);
        assert!(
            requests[0].ends_with(r#""site":"rx","kind":"nf-crash","after":2}"#),
            "{requests:?}"
        );
        let (_, requests) = lower("launch a\"b mem=4").unwrap();
        let parsed = parse_request(&requests[0]).expect("escaped");
        assert_eq!(parsed.str("name"), Some("a\"b"));
    }

    #[test]
    fn lowering_is_total_over_the_verb_table() {
        for verb in VERBS {
            let script = match verb.positional {
                Some(_) => format!("\n{} x extra=7", verb.name),
                None => format!("\n{} extra=7", verb.name),
            };
            let (_, requests) = lower(&script).unwrap_or_else(|e| panic!("{}: {e}", verb.name));
            let [request] = &requests[..] else {
                panic!("{}: {requests:?}", verb.name);
            };
            let parsed = parse_request(request).expect("lowered lines are requests");
            assert_eq!(
                (&*parsed.op, &*parsed.tenant, parsed.id),
                (verb.name, TENANT, 2)
            );
            assert_eq!(parsed.num("extra"), Some(7));
            if let Some(key) = verb.positional {
                assert_eq!(parsed.str(key), Some("x"), "{request}");
            }
            let members = match snic_telemetry::parse_json(request) {
                Ok(Json::Obj(members)) => members.len(),
                other => panic!("{other:?}"),
            };
            assert_eq!(members, 4 + usize::from(verb.positional.is_some()));
        }
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        for bad in [
            "bogus",
            "send 3 port=",
            "send 3 =80",
            "health now",
            "launch fw twice mem=4",
            "launch fw tenant=other mem=4",
            "stats fw id=9",
            "nic",
            "nic fpga",
            "nic snic commodity",
            "health\nnic snic",
        ] {
            let script = format!("# header\n\n{bad}");
            let err = lower(&script).expect_err(bad);
            let line = 3 + bad.matches('\n').count();
            assert!(err.starts_with(&format!("line {line}: ")), "{bad}: {err}");
        }
    }
}
