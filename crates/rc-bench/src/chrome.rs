//! Chrome trace-event encoding, the one layout of both Perfetto exports
//! ([`crate::provenance::chrome_trace`] and
//! [`crate::critpath::multi_track_trace`]).
//!
//! Every event belongs to pid 1, the run, and keys its fields `name, cat,
//! ph, [s], pid, tid, ts, [dur], args`; the document keys `traceEvents,
//! displayTimeUnit, otherData`. Timestamps are virtual cycles.

use region_rt::Json;

/// One event on track `tid` at `ts`: a complete (`"X"`) slice of `dur`
/// when `dur` is given, else a thread-scoped instant (`"i"`, `"s": "t"`).
pub(crate) fn event(
    name: impl Into<String>,
    cat: &str,
    tid: u64,
    ts: u64,
    dur: Option<u64>,
    args: Vec<(&str, Json)>,
) -> Json {
    let mut fields = vec![("name", Json::s(name)), ("cat", Json::s(cat))];
    match dur {
        Some(_) => fields.push(("ph", Json::s("X"))),
        None => fields.extend([("ph", Json::s("i")), ("s", Json::s("t"))]),
    }
    fields.extend([("pid", Json::U(1)), ("tid", Json::U(tid)), ("ts", Json::U(ts))]);
    fields.extend(dur.map(|d| ("dur", Json::U(d))));
    fields.push(("args", Json::obj(args)));
    Json::obj(fields)
}

/// The trace document around `events`, with `other` as its `otherData`
/// and nanoseconds as the display unit.
pub(crate) fn document(events: Vec<Json>, other: Vec<(&str, Json)>) -> Json {
    Json::obj(vec![
        ("traceEvents", Json::A(events)),
        ("displayTimeUnit", Json::s("ns")),
        ("otherData", Json::obj(other)),
    ])
}
