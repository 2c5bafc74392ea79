//! Structured event traces and their exporters.
//!
//! Events use the Chrome trace event model: duration spans (`B`/`E`),
//! instants (`i`) and counter samples (`C`), each attributed to a
//! domain (rendered as the Chrome `tid`). The exporter writes a Chrome
//! trace document loadable in `chrome://tracing` or Perfetto; the parser
//! reads it back for round-trip testing and the `snicctl telemetry`
//! commands.

use crate::json::{escape_into, parse_json, Json, JsonError};

/// The kind of a trace event, mirroring the Chrome `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin (`ph:"B"`).
    Begin,
    /// Span end (`ph:"E"`).
    End,
    /// Instant event (`ph:"i"`).
    Instant,
    /// Counter sample (`ph:"C"`).
    Counter,
}

impl Phase {
    fn ph(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }

    fn from_ph(ph: &str) -> Option<Phase> {
        match ph {
            "B" => Some(Phase::Begin),
            "E" => Some(Phase::End),
            "i" | "I" => Some(Phase::Instant),
            "C" => Some(Phase::Counter),
            _ => None,
        }
    }
}

/// One recorded event. `ts` is simulated time in the emitting layer's
/// unit; `value` is only meaningful for [`Phase::Counter`] samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind.
    pub phase: Phase,
    /// Event name, e.g. `"nf.launch"` or `"uarch.nf_run"`.
    pub name: String,
    /// Isolation domain (`NfId.0`, or 0 for the management plane).
    pub domain: u64,
    /// Simulated timestamp.
    pub ts: u64,
    /// Counter value for [`Phase::Counter`] events, else 0.
    pub value: u64,
}

fn write_event_obj(out: &mut String, e: &TraceEvent) {
    out.push_str("{\"name\":\"");
    escape_into(out, &e.name);
    out.push_str("\",\"cat\":\"snic\",\"ph\":\"");
    out.push_str(e.phase.ph());
    out.push_str("\",\"ts\":");
    out.push_str(&e.ts.to_string());
    out.push_str(",\"pid\":0,\"tid\":");
    out.push_str(&e.domain.to_string());
    match e.phase {
        Phase::Instant => out.push_str(",\"s\":\"t\""),
        Phase::Counter => {
            out.push_str(",\"args\":{\"value\":");
            out.push_str(&e.value.to_string());
            out.push('}');
        }
        _ => {}
    }
    out.push('}');
}

/// Render events as a complete Chrome trace document
/// (`chrome://tracing` / Perfetto "legacy JSON" format).
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write_event_obj(&mut out, e);
    }
    out.push_str("\n]}\n");
    out
}

fn event_from_json(v: &Json, at: usize) -> Result<TraceEvent, JsonError> {
    let bad = |what| JsonError { at, what };
    let phase = v
        .get("ph")
        .and_then(Json::as_str)
        .and_then(Phase::from_ph)
        .ok_or_else(|| bad("event missing a supported \"ph\""))?;
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("event missing \"name\""))?
        .to_string();
    let ts = v
        .get("ts")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("event missing integral \"ts\""))?;
    let domain = v
        .get("tid")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("event missing integral \"tid\""))?;
    let value = v
        .get("args")
        .and_then(|a| a.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    Ok(TraceEvent {
        phase,
        name,
        domain,
        ts,
        value,
    })
}

/// Parse a Chrome trace document (as produced by [`to_chrome_trace`],
/// or any document with a `traceEvents` array of compatible objects).
/// Events with an unsupported `ph` are skipped.
pub fn parse_chrome_trace(doc: &str) -> Result<Vec<TraceEvent>, JsonError> {
    let v = parse_json(doc)?;
    let events = match &v {
        Json::Arr(items) => items.as_slice(),
        _ => v
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or(JsonError {
                at: 0,
                what: "document has no \"traceEvents\" array",
            })?,
    };
    let mut out = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        if e.get("ph").and_then(Json::as_str).map(Phase::from_ph) == Some(None) {
            continue;
        }
        out.push(event_from_json(e, i)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                phase: Phase::Begin,
                name: "nf.launch".into(),
                domain: 1,
                ts: 10,
                value: 0,
            },
            TraceEvent {
                phase: Phase::End,
                name: "nf.launch".into(),
                domain: 1,
                ts: 90,
                value: 0,
            },
            TraceEvent {
                phase: Phase::Instant,
                name: "fault.power_loss".into(),
                domain: 0,
                ts: 120,
                value: 0,
            },
            TraceEvent {
                phase: Phase::Counter,
                name: "uarch.l2_misses".into(),
                domain: 3,
                ts: 200,
                value: 4242,
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips() {
        let events = sample_events();
        let doc = to_chrome_trace(&events);
        let back = parse_chrome_trace(&doc).expect("parse back");
        assert_eq!(back, events);
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let doc = to_chrome_trace(&sample_events());
        let v = parse_json(&doc).expect("well-formed");
        assert!(v.get("traceEvents").is_some());
    }

    #[test]
    fn foreign_metadata_events_are_skipped() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0},
            {"name":"x","ph":"B","ts":1,"pid":0,"tid":7}
        ]}"#;
        let back = parse_chrome_trace(doc).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].domain, 7);
    }
}
