//! Chrome-trace/Perfetto JSON: the one trace file format, its writer and
//! its exact reader.
//!
//! The exporter writes the [Trace Event Format] consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): spans as
//! `B`/`E` phase pairs, counters (running totals) and gauges (tagged
//! `"cat":"gauge"`, with their exact f64 bits in `bits`) as `C` events,
//! instants and links as `i`, and request link chains as flow events
//! (`s`/`t`/`f` phases keyed by request id) so a request's journey across
//! router/serve/engine/tier tracks renders as connected arrows.
//! Timestamps are the **logical** cycle values (one trace-µs per cycle),
//! so the rendered timeline is deterministic; wall-clock span annotations
//! ride in `args.wall_ns`. [`read_chrome_trace`] inverts the writer event
//! for event, so `pade-trace-query` and `pade-trace-validate` work from
//! the same file Perfetto opens.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::{track, TraceEvent, TraceSnapshot, TrackEvents};
use pade_sim::Cycle;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// Escapes a string for embedding in a JSON literal.
#[must_use]
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Writes a snapshot as Chrome-trace JSON.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace<W: Write>(snapshot: &TraceSnapshot, mut w: W) -> io::Result<()> {
    // Pre-pass: order every request's link hops by (clock, track,
    // emission index) and assign flow phases — first hop opens the flow
    // (`s`), middle hops step it (`t`), the last closes it (`f`).
    // Single-hop chains draw no arrow and render as plain instants.
    let mut chains: BTreeMap<u64, Vec<(u64, u64, usize)>> = BTreeMap::new();
    for t in &snapshot.tracks {
        for (i, e) in t.events.iter().enumerate() {
            if let TraceEvent::Link { clock, request, .. } = *e {
                chains.entry(request).or_default().push((clock.0, t.track, i));
            }
        }
    }
    let mut flow_phase: BTreeMap<(u64, usize), (char, u64)> = BTreeMap::new();
    for (request, mut chain) in chains {
        if chain.len() < 2 {
            continue;
        }
        chain.sort_unstable();
        let last = chain.len() - 1;
        for (k, (_, track, index)) in chain.into_iter().enumerate() {
            let phase = if k == 0 {
                's'
            } else if k == last {
                'f'
            } else {
                't'
            };
            flow_phase.insert((track, index), (phase, request));
        }
    }

    w.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    let mut emit = |w: &mut W, line: &str| -> io::Result<()> {
        if first {
            first = false;
        } else {
            w.write_all(b",")?;
        }
        w.write_all(b"\n")?;
        w.write_all(line.as_bytes())
    };
    for t in &snapshot.tracks {
        let tid = t.track;
        emit(
            &mut w,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(&track::label(tid))
            ),
        )?;
        // Running totals so delta counters render as levels, and the open
        // span stack so `E` events can repeat their span's name (some
        // viewers want it).
        let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut open: Vec<&'static str> = Vec::new();
        for (i, e) in t.events.iter().enumerate() {
            if let TraceEvent::Link { name, clock, request, info } = *e {
                emit(
                    &mut w,
                    &format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\
                         \"s\":\"t\",\"args\":{{\"request\":{request},\"info\":{info}}}}}",
                        escape(name),
                        clock.0
                    ),
                )?;
                if let Some(&(phase, request)) = flow_phase.get(&(tid, i)) {
                    // `bp:e` binds the closing flow arrow to the
                    // enclosing slice, which Perfetto renders cleanly.
                    let bp = if phase == 'f' { ",\"bp\":\"e\"" } else { "" };
                    emit(
                        &mut w,
                        &format!(
                            "{{\"name\":\"req\",\"cat\":\"req\",\"ph\":\"{phase}\",\
                             \"id\":{request},\"ts\":{},\"pid\":1,\"tid\":{tid}{bp}}}",
                            clock.0
                        ),
                    )?;
                }
                continue;
            }
            let line = match *e {
                TraceEvent::Begin { name, clock } => {
                    open.push(name);
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{tid}}}",
                        escape(name),
                        clock.0
                    )
                }
                TraceEvent::End { clock, wall_nanos } => {
                    let name = open.pop().unwrap_or("");
                    let args = if wall_nanos > 0 {
                        format!(",\"args\":{{\"wall_ns\":{wall_nanos}}}")
                    } else {
                        String::new()
                    };
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":{tid}{args}}}",
                        escape(name),
                        clock.0
                    )
                }
                TraceEvent::Instant { name, clock } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"s\":\"t\"}}",
                    escape(name),
                    clock.0
                ),
                TraceEvent::Count { name, clock, delta } => {
                    let total = totals.entry(name).or_insert(0);
                    *total = total.wrapping_add(delta);
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{tid},\
                         \"args\":{{\"value\":{}}}}}",
                        escape(name),
                        clock.0,
                        *total
                    )
                }
                TraceEvent::Gauge { name, clock, value } => {
                    // JSON has no NaN or infinity: the viewer gets `null`
                    // for those, and `bits` carries every value exactly.
                    let shown =
                        if value.is_finite() { value.to_string() } else { "null".to_string() };
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"gauge\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                         \"tid\":{tid},\"bits\":{},\"args\":{{\"value\":{shown}}}}}",
                        escape(name),
                        clock.0,
                        value.to_bits()
                    )
                }
                TraceEvent::Link { .. } => unreachable!("links are emitted above"),
            };
            emit(&mut w, &line)?;
        }
    }
    // No trailing newline: every proper prefix of the file is then
    // unbalanced JSON, so a torn write never reads back as a trace.
    w.write_all(b"\n],\"displayTimeUnit\":\"ns\"}")
}

/// Writes a snapshot as Chrome-trace JSON to `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_chrome_trace(snapshot: &TraceSnapshot, path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut buf = io::BufWriter::new(file);
    write_chrome_trace(snapshot, &mut buf)?;
    buf.flush()
}

/// Reads Chrome-trace JSON written by [`write_chrome_trace`] back into
/// the snapshot it came from, event for event: tracks in file order
/// (one per `tid`, metadata-only tracks included), counter running
/// totals turned back into deltas per (track, name), gauges from their
/// exact `bits`, links from their `request`/`info` args and span ends
/// with their `wall_ns` annotation. Flow events are skipped — the writer
/// derives them from links. Every integer is parsed exactly as a `u64`.
///
/// The reader checks syntax and field types only; run
/// [`TraceSnapshot::check_well_formed`] on the result for span balance
/// and clock order.
///
/// # Errors
///
/// Describes the first syntax error or the first event whose phase or
/// fields the writer could not have produced.
pub fn read_chrome_trace(text: &str) -> Result<TraceSnapshot, String> {
    use json::Value;
    let root = json::parse(text)?;
    let events =
        root.get("traceEvents").and_then(Value::as_array).ok_or("missing traceEvents array")?;
    let mut tracks: Vec<TrackEvents> = Vec::new();
    let mut slots: BTreeMap<u64, usize> = BTreeMap::new();
    let mut totals: BTreeMap<(u64, &'static str), u64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let u64_at = |v: Option<&Value>, key: &str| {
            v.and_then(|v| v.get(key))
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("event {i}: '{key}' is missing or not a u64"))
        };
        let ph = e.get("ph").and_then(Value::as_str).ok_or_else(|| format!("event {i}: no ph"))?;
        if matches!(ph, "s" | "t" | "f") {
            continue;
        }
        let tid = u64_at(Some(e), "tid")?;
        let slot = *slots.entry(tid).or_insert_with(|| {
            tracks.push(TrackEvents { track: tid, events: Vec::new() });
            tracks.len() - 1
        });
        if ph == "M" {
            continue;
        }
        let clock = Cycle(u64_at(Some(e), "ts")?);
        let name = || {
            e.get("name")
                .and_then(Value::as_str)
                .map(intern)
                .ok_or_else(|| format!("event {i}: no name"))
        };
        let args = e.get("args");
        let event = match ph {
            "B" => TraceEvent::Begin { name: name()?, clock },
            "E" => {
                let wall_nanos = match args.and_then(|a| a.get("wall_ns")) {
                    Some(_) => u64_at(args, "wall_ns")?,
                    None => 0,
                };
                TraceEvent::End { clock, wall_nanos }
            }
            "i" if args.is_none() => TraceEvent::Instant { name: name()?, clock },
            "i" => TraceEvent::Link {
                name: name()?,
                clock,
                request: u64_at(args, "request")?,
                info: u64_at(args, "info")?,
            },
            "C" if e.get("cat").and_then(Value::as_str) == Some("gauge") => TraceEvent::Gauge {
                name: name()?,
                clock,
                value: f64::from_bits(u64_at(Some(e), "bits")?),
            },
            "C" => {
                let name = name()?;
                let total = u64_at(args, "value")?;
                let last = totals.insert((tid, name), total).unwrap_or(0);
                TraceEvent::Count { name, clock, delta: total.wrapping_sub(last) }
            }
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        };
        tracks[slot].events.push(event);
    }
    Ok(TraceSnapshot { tracks })
}

/// Interns a name read from a trace file, yielding the `&'static str`
/// names [`TraceEvent`] requires. Stage-name sets are small and fixed per
/// build, so the leak is bounded.
fn intern(name: &str) -> &'static str {
    static POOL: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut pool = POOL.lock().expect("intern pool poisoned");
    if let Some(&s) = pool.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.insert(name.to_owned(), leaked);
    leaked
}

/// A minimal recursive-descent JSON parser — the workspace vendors no
/// serde, and the reader must check real syntax, not grep for tokens.
/// Numbers keep their source text so integers read back exactly (track
/// ids reach 2^56 and payloads 2^64, past f64's 53-bit mantissa), and
/// nesting is capped so hostile input returns an error instead of
/// overflowing the stack.
mod json {
    /// Deepest array/object nesting accepted; trace files nest 3 deep.
    const MAX_DEPTH: usize = 64;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number, as its source text.
        Num(String),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The value of `key` when `self` is an object holding it.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// The number as an exact `u64`: no sign, fraction or exponent.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(n) => n.parse().ok(),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
            }
            Some(b'{') => object(b, pos, depth + 1),
            Some(b'[') => array(b, pos, depth + 1),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => literal(b, pos, "true", Value::Bool(true)),
            Some(b'f') => literal(b, pos, "false", Value::Bool(false)),
            Some(b'n') => literal(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {pos}"))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        match s.parse::<f64>() {
            Ok(_) => Ok(Value::Num(s.to_string())),
            Err(_) => Err(format!("bad number '{s}' at byte {start}")),
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {pos}")),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through unchanged.
                    let ch_len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = b.get(*pos..*pos + ch_len).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos += ch_len;
                }
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos, depth)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos, depth)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceSink};
    use pade_sim::Cycle;

    fn sample_snapshot() -> TraceSnapshot {
        let rec = Recorder::new();
        rec.submit(
            track::id(track::ENGINE, 0, 0),
            &[
                TraceEvent::Begin { name: "engine.qk_block", clock: Cycle(0) },
                TraceEvent::Count { name: "engine.popcounts", clock: Cycle(3), delta: 2 },
                TraceEvent::Count { name: "engine.popcounts", clock: Cycle(5), delta: 1 },
                TraceEvent::End { clock: Cycle(9), wall_nanos: 321 },
            ],
        );
        rec.submit(
            track::id(track::SERVE, 0, 0),
            &[
                TraceEvent::Gauge { name: "serve.queue_depth", clock: Cycle(1), value: 2.0 },
                TraceEvent::Instant { name: "serve.retire", clock: Cycle(4) },
                TraceEvent::Begin { name: "serve.dispatch", clock: Cycle(4) },
                TraceEvent::End { clock: Cycle(8), wall_nanos: 0 },
            ],
        );
        rec.snapshot()
    }

    fn export(snapshot: &TraceSnapshot) -> String {
        let mut out = Vec::new();
        write_chrome_trace(snapshot, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn export_round_trips_through_reader() {
        let snapshot = sample_snapshot();
        let text = export(&snapshot);
        let read = read_chrome_trace(&text).unwrap();
        assert_eq!(read, snapshot);
        read.check_well_formed().unwrap();
        assert_eq!(read.span_count(), 2);
        assert!(read.stage_names().contains("engine.qk_block"));
        assert!(read.stage_names().contains("serve.dispatch"));
        // Delta counters render as running totals.
        assert!(text.contains("\"value\":3"));
        // Wall annotation rides in args.
        assert!(text.contains("\"wall_ns\":321"));
    }

    #[test]
    fn reader_rejects_garbage_and_validation_rejects_unbalanced_spans() {
        assert!(read_chrome_trace("not json").is_err());
        assert!(read_chrome_trace("{\"traceEvents\":3}").is_err());
        assert!(read_chrome_trace(r#"{"traceEvents":[{"ph":"B","ts":0,"tid":1.5}]}"#).is_err());
        let unbalanced = r#"{"traceEvents":[
            {"name":"x","ph":"B","ts":0,"pid":1,"tid":1}
        ]}"#;
        let err = read_chrome_trace(unbalanced).unwrap().check_well_formed().unwrap_err();
        assert!(err.contains("never ended"), "{err}");
        let orphan = r#"{"traceEvents":[
            {"name":"x","ph":"E","ts":0,"pid":1,"tid":1}
        ]}"#;
        let err = read_chrome_trace(orphan).unwrap().check_well_formed().unwrap_err();
        assert!(err.contains("end without begin"), "{err}");
    }

    /// Track ids start at 2^56, where f64 cannot tell neighbours apart:
    /// a span opened on one track and closed on the next must not pair up.
    #[test]
    fn neighbouring_track_ids_stay_distinct() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":0,"pid":1,"tid":72057594037927936},
            {"name":"a","ph":"E","ts":1,"pid":1,"tid":72057594037927937}
        ]}"#;
        let read = read_chrome_trace(text).unwrap();
        let tids: Vec<u64> = read.tracks.iter().map(|t| t.track).collect();
        assert_eq!(tids, [72_057_594_037_927_936, 72_057_594_037_927_937]);
        assert!(read.check_well_formed().is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(read_chrome_trace(&deep).unwrap_err().contains("nesting"));
        let nested = format!("{}{}", "[".repeat(64), "]".repeat(64));
        assert!(json::parse(&nested).is_ok());
        let nested = format!("{}{}", "[".repeat(65), "]".repeat(65));
        assert!(json::parse(&nested).is_err());
    }

    #[test]
    fn every_torn_trace_is_rejected() {
        let text = export(&sample_snapshot());
        assert!(text.is_ascii());
        for cut in 0..text.len() {
            assert!(
                read_chrome_trace(&text[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte trace read back",
                text.len()
            );
        }
    }

    #[test]
    fn non_finite_gauges_and_wrapping_counters_round_trip() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let rec = Recorder::new();
        rec.submit(
            1,
            &[
                TraceEvent::Gauge { name: "g", clock: Cycle(0), value: nan },
                TraceEvent::Gauge { name: "g", clock: Cycle(1), value: f64::NEG_INFINITY },
                TraceEvent::Gauge { name: "g", clock: Cycle(2), value: -0.0 },
                TraceEvent::Count { name: "c", clock: Cycle(3), delta: u64::MAX },
                TraceEvent::Count { name: "c", clock: Cycle(4), delta: 5 },
            ],
        );
        let read = read_chrome_trace(&export(&rec.snapshot())).unwrap();
        let bits: Vec<u64> = read.tracks[0]
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Gauge { value, .. } => Some(value.to_bits()),
                _ => None,
            })
            .collect();
        assert_eq!(bits, [nan.to_bits(), f64::NEG_INFINITY.to_bits(), (-0.0f64).to_bits()]);
        assert_eq!(read.tracks[0].events[3..], rec.snapshot().tracks[0].events[3..]);
        assert_eq!(read.fingerprint(), rec.snapshot().fingerprint());
    }

    #[test]
    fn link_chains_export_as_flow_events() {
        let rec = Recorder::new();
        rec.submit(
            track::id(track::SERVE, 0, 0),
            &[
                TraceEvent::Link { name: "req.admit", clock: Cycle(0), request: 5, info: 0 },
                TraceEvent::Link { name: "req.prefill", clock: Cycle(2), request: 5, info: 9 },
            ],
        );
        rec.submit(
            track::id(track::ENGINE, 0, 0),
            &[
                TraceEvent::Link { name: "req.retire", clock: Cycle(7), request: 5, info: 7 },
                TraceEvent::Link { name: "req.admit", clock: Cycle(8), request: 6, info: 0 },
            ],
        );
        let text = export(&rec.snapshot());
        // Request 5's three hops draw s → t → f; request 6's single hop
        // draws no arrow (instant only).
        assert_eq!(text.matches("\"cat\":\"req\"").count(), 3);
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"ph\":\"t\""));
        assert!(text.contains("\"ph\":\"f\""));
        assert!(text.contains("\"bp\":\"e\""));
        assert!(text.contains("\"request\":5"));
        // The reader skips the derived flow events and restores the links.
        assert_eq!(read_chrome_trace(&text).unwrap(), rec.snapshot());
    }

    #[test]
    fn empty_snapshot_exports_valid_json() {
        let text = export(&TraceSnapshot::default());
        assert!(read_chrome_trace(&text).unwrap().is_empty());
    }
}
