//! Bench-side spans: wall-clock intervals around each call the benchmark
//! makes into a layer's public API, kept in memory and written out once
//! the run ends.
//!
//! Spans form a two-level tree. A *root* span covers one setup
//! repetition, one job or one probe; a *leaf* span covers one call into
//! a layer and carries the counts read off that call's result. A layer's
//! self time is its span's duration minus its children's, so a root's
//! self time is the part of a job no layer span covers.

use std::collections::BTreeMap;
use std::time::Instant;

use region_rt::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (leaf) or root kind (`setup`, `job`, `probe`).
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing root span (`None` for roots).
    pub parent: Option<usize>,
    /// What a root span ran (`lcc/RC`, a fuzz seed, …); empty on leaves.
    pub label: String,
    /// Counts read off the call's result at the span boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// A recorded count, or 0.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

/// The span recorder. A disabled recorder runs every closure without
/// timing it, so the untraced passes pay one branch per call.
pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open_root: Option<usize>,
}

impl Spans {
    /// A recorder that records.
    pub fn new() -> Spans {
        Spans {
            on: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open_root: None,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            ..Spans::new()
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Temporarily stops or resumes recording (for untraced passes inside
    /// a traced run).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a root span; leaves recorded until [`Spans::end_root`] nest
    /// under it.
    pub fn begin_root(&mut self, name: &'static str, label: impl FnOnce() -> String) {
        if !self.on {
            return;
        }
        assert!(self.open_root.is_none(), "root spans do not nest");
        let start_ns = self.now_ns();
        self.open_root = Some(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            label: label(),
            counts: Vec::new(),
        });
    }

    /// Closes the open root span.
    pub fn end_root(&mut self) {
        if let Some(i) = self.open_root.take() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open_root,
            label: String::new(),
            counts: Vec::new(),
        });
        out
    }

    /// Attaches a count to the most recent leaf span.
    pub fn count(&mut self, key: &'static str, n: u64) {
        if !self.on {
            return;
        }
        if let Some(s) = self.spans.last_mut() {
            s.counts.push((key, n));
        }
    }

    /// Every recorded span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// The label of a span's root (its own label for a root).
    pub fn root_label<'a>(&'a self, s: &'a Span) -> &'a str {
        match s.parent {
            Some(p) => &self.spans[p].label,
            None => &s.label,
        }
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_table(&self) -> SelfTable {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.name).or_default();
            row.n += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += s.dur_ns().saturating_sub(child);
            for &(k, v) in &s.counts {
                *row.counts.entry(k).or_default() += v;
            }
        }
        SelfTable { rows }
    }

    /// The spans as a Chrome trace-event document (loads in Perfetto and
    /// `chrome://tracing`): one complete (`X`) event per span. `job` is
    /// the index of the span's root, so a job's spans share it.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let us = |ns: u64| Json::F(ns as f64 / 1000.0);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("span", Json::U(i as u64)),
                    ("job", Json::U(s.parent.unwrap_or(i) as u64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::U(p as u64))),
                ];
                if !s.label.is_empty() {
                    args.push(("label", Json::s(&*s.label)));
                }
                let counts = s.counts.iter().map(|&(k, v)| (k, Json::U(v)));
                args.extend(counts);
                Json::obj(vec![
                    ("name", Json::s(s.name)),
                    (
                        "cat",
                        Json::s(if s.parent.is_some() { "layer" } else { "root" }),
                    ),
                    ("ph", Json::s("X")),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.dur_ns())),
                    ("pid", Json::U(1)),
                    ("tid", Json::U(1)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::A(events)),
            ("displayTimeUnit", Json::s("ms")),
            (
                "otherData",
                Json::obj(vec![("workload", Json::s(workload))]),
            ),
        ])
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// Spans recorded.
    pub n: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − children's durations).
    pub self_ns: u64,
    /// Σ of each count key.
    pub counts: BTreeMap<&'static str, u64>,
}

/// Self time and counts per span name.
#[derive(Debug, Clone, Default)]
pub struct SelfTable {
    /// Rows by span name.
    pub rows: BTreeMap<&'static str, Row>,
}

impl SelfTable {
    /// The row for `name` (empty when no such span was recorded).
    pub fn row(&self, name: &str) -> Row {
        self.rows.get(name).cloned().unwrap_or_default()
    }

    /// Number of spans named `name`.
    pub fn n(&self, name: &str) -> u64 {
        self.row(name).n
    }

    /// Σ self time of `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.row(name).self_ns as f64 / 1e6
    }

    /// Mean self time per `name` span, in milliseconds (0 when none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        per(self.self_ms(name), self.n(name))
    }

    /// Σ of count `key` over spans named `name`.
    pub fn sum(&self, name: &str, key: &str) -> u64 {
        self.rows
            .get(name)
            .and_then(|r| r.counts.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Mean of count `key` per `name` span (0 when none).
    pub fn mean(&self, name: &str, key: &str) -> f64 {
        per(self.sum(name, key) as f64, self.n(name))
    }

    /// The table as JSON rows, for the result file.
    pub fn to_json(&self) -> Json {
        Json::A(
            self.rows
                .iter()
                .map(|(name, r)| {
                    let mut fields = vec![
                        ("name", Json::s(*name)),
                        ("n", Json::U(r.n)),
                        ("total_ms", Json::F(r.total_ns as f64 / 1e6)),
                        ("self_ms", Json::F(r.self_ns as f64 / 1e6)),
                    ];
                    fields.extend(r.counts.iter().map(|(k, v)| (*k, Json::U(*v))));
                    Json::obj(fields)
                })
                .collect(),
        )
    }

    /// A human-readable table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<22} {:>7} {:>12} {:>12}\n",
            "span", "n", "total_ms", "self_ms"
        );
        for (name, r) in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>7} {:>12.3} {:>12.3}\n",
                name,
                r.n,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            ));
        }
        out
    }
}

/// `x / n`, or 0 when `n` is 0.
pub fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_counts() {
        let mut sp = Spans::new();
        sp.begin_root("job", || "a".into());
        sp.leaf("lexer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.count("tokens", 5);
        sp.leaf("lexer", || ());
        sp.count("tokens", 7);
        sp.end_root();
        let t = sp.self_table();
        assert_eq!(t.n("lexer"), 2);
        assert_eq!(t.sum("lexer", "tokens"), 12);
        assert_eq!(t.mean("lexer", "tokens"), 6.0);
        let job = t.row("job");
        assert_eq!(job.self_ns + t.row("lexer").total_ns, job.total_ns);
        assert!(t.self_ms("lexer") >= 2.0);
        assert_eq!(sp.root_label(&sp.all()[1]), "a");
        let trace = sp.chrome_trace("w").render();
        assert!(trace.contains("\"traceEvents\"") && trace.contains("\"tokens\":5"));
    }

    #[test]
    fn a_disabled_recorder_runs_closures_and_records_nothing() {
        let mut sp = Spans::off();
        sp.begin_root("job", || {
            unreachable!("labels are built only when recording")
        });
        assert_eq!(sp.leaf("lexer", || 3), 3);
        sp.count("tokens", 1);
        sp.end_root();
        assert!(sp.all().is_empty());
    }
}
