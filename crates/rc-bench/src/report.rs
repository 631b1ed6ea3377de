//! Regeneration of the paper's tables and figures.
//!
//! Each function reruns the eight workloads under the relevant
//! configurations and assembles rows mirroring the paper's evaluation
//! section. Absolute numbers are virtual-clock instruction counts (the
//! substrate is an interpreter, not a 2001 SPARC), so the meaningful
//! comparisons — who wins, relative overheads, crossovers — are reported
//! as ratios and percentages alongside the paper's own values.
//!
//! Rows serialize through the dependency-free [`Json`] writer (the build
//! environment is offline, so no serde): every row type implements
//! [`Row`], from which both the aligned text tables and the JSON dumps
//! are derived.

use std::collections::BTreeMap;

use rc_lang::interp::{run, Outcome, RunResult};
use rc_lang::RunConfig;
use rc_workloads::driver::{prepare_workload, static_stats};
use rc_workloads::{paper, Scale, Workload};
use region_rt::{Json, Tracer};

/// A table row rendered as ordered `(column, value)` pairs; the single
/// source for both the text tables and the JSON export.
pub trait Row {
    /// The row's columns, in display order.
    fn fields(&self) -> Vec<(&'static str, Json)>;
}

/// Serializes rows as a JSON array of objects.
pub fn rows_json<T: Row>(rows: &[T]) -> Json {
    Json::A(rows.iter().map(|r| Json::obj(r.fields())).collect())
}

fn opt_f(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F)
}

fn map_u(m: &BTreeMap<String, u64>) -> Json {
    Json::O(m.iter().map(|(k, &v)| (k.clone(), Json::U(v))).collect())
}

fn map_f(m: &BTreeMap<String, f64>) -> Json {
    Json::O(m.iter().map(|(k, &v)| (k.clone(), Json::F(v))).collect())
}

/// Table 1: benchmark characteristics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Lines in our miniature RC source.
    pub lines: usize,
    /// Objects allocated during the run.
    pub allocs: u64,
    /// Total memory allocated (kB).
    pub mem_alloc_kb: u64,
    /// Peak memory in use (kB).
    pub max_use_kb: u64,
    /// The original program's Table 1 row, for scale comparison.
    pub paper_lines: u32,
    /// Paper: number of allocations.
    pub paper_allocs: u64,
}

impl Row for Table1Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("lines", Json::U(self.lines as u64)),
            ("allocs", Json::U(self.allocs)),
            ("mem_alloc_kb", Json::U(self.mem_alloc_kb)),
            ("max_use_kb", Json::U(self.max_use_kb)),
            ("paper_lines", Json::U(self.paper_lines as u64)),
            ("paper_allocs", Json::U(self.paper_allocs)),
        ]
    }
}

/// Runs a workload once under a config, panicking on a non-exit.
fn must_run(w: &Workload, scale: Scale, cfg: &RunConfig) -> RunResult {
    let c = prepare_workload(w, scale);
    let r = run(&c, cfg);
    match r.outcome {
        Outcome::Exit(_) => r,
        ref other => panic!("{}: did not exit cleanly: {other:?}", w.name),
    }
}

/// Generates Table 1.
pub fn table1(scale: Scale) -> Vec<Table1Row> {
    rc_workloads::all()
        .iter()
        .map(|w| {
            let src = (w.source)(scale);
            let r = must_run(w, scale, &RunConfig::rc_inf());
            let p = paper::row(w.name).expect("paper row exists");
            Table1Row {
                name: w.name.to_string(),
                lines: src.lines().filter(|l| !l.trim().is_empty()).count(),
                allocs: r.stats.objects_allocated,
                mem_alloc_kb: r.stats.words_allocated * 8 / 1024,
                max_use_kb: r.stats.peak_live_words * 8 / 1024,
                paper_lines: p.lines,
                paper_allocs: p.allocs,
            }
        })
        .collect()
}

/// Table 2: reference-counting overhead.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// RC: reference-count work (count updates + local pins) as % of
    /// total execution time, under the qs regime (annotations used, as in
    /// the paper's Table 2).
    pub rc_overhead_pct: f64,
    /// C@: same, under the C@ configuration.
    pub cat_overhead_pct: f64,
    /// Region unscan as % of total execution time (RC).
    pub unscan_pct: f64,
    /// Paper's RC overhead %, where reported.
    pub paper_rc_pct: Option<f64>,
    /// Paper's C@ overhead %, where reported.
    pub paper_cat_pct: Option<f64>,
}

impl Row for Table2Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("rc_overhead_pct", Json::F(self.rc_overhead_pct)),
            ("cat_overhead_pct", Json::F(self.cat_overhead_pct)),
            ("unscan_pct", Json::F(self.unscan_pct)),
            ("paper_rc_pct", opt_f(self.paper_rc_pct)),
            ("paper_cat_pct", opt_f(self.paper_cat_pct)),
        ]
    }
}

/// Generates Table 2.
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    rc_workloads::all()
        .iter()
        .map(|w| {
            let rc = must_run(w, scale, &RunConfig::rc(rc_lang::CheckMode::Qs));
            let cat = must_run(w, scale, &RunConfig::cat());
            let p = paper::row(w.name).expect("paper row exists");
            let pct = |part: u64, whole: u64| {
                if whole == 0 {
                    0.0
                } else {
                    100.0 * part as f64 / whole as f64
                }
            };
            Table2Row {
                name: w.name.to_string(),
                rc_overhead_pct: pct(rc.stats.rc_cycles, rc.cycles),
                cat_overhead_pct: pct(cat.stats.rc_cycles, cat.cycles),
                unscan_pct: pct(rc.stats.unscan_cycles, rc.cycles),
                paper_rc_pct: p.rc_overhead_pct,
                paper_cat_pct: p.cat_overhead_pct,
            }
        })
        .collect()
}

/// Table 3: annotation statistics and static verification rates.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Annotation keywords in the source.
    pub keywords: usize,
    /// Annotated assignment sites.
    pub sites: usize,
    /// Sites the inference proved safe.
    pub safe_sites: usize,
    /// % of annotated sites proven safe.
    pub safe_pct: f64,
    /// Paper's % safe.
    pub paper_safe_pct: f64,
    /// Paper's keyword count.
    pub paper_keywords: u32,
}

impl Row for Table3Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("keywords", Json::U(self.keywords as u64)),
            ("sites", Json::U(self.sites as u64)),
            ("safe_sites", Json::U(self.safe_sites as u64)),
            ("safe_pct", Json::F(self.safe_pct)),
            ("paper_safe_pct", Json::F(self.paper_safe_pct)),
            ("paper_keywords", Json::U(self.paper_keywords as u64)),
        ]
    }
}

/// Generates Table 3.
pub fn table3(scale: Scale) -> Vec<Table3Row> {
    rc_workloads::all()
        .iter()
        .map(|w| {
            let s = static_stats(w, scale);
            let p = paper::row(w.name).expect("paper row exists");
            Table3Row {
                name: w.name.to_string(),
                keywords: s.keywords,
                sites: s.sites,
                safe_sites: s.safe_sites,
                safe_pct: s.safe_pct(),
                paper_safe_pct: p.safe_assign_pct,
                paper_keywords: p.keywords,
            }
        })
        .collect()
}

/// Figure 7: execution time per benchmark under the five configurations.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub name: String,
    /// Virtual cycles per configuration (C@, lea, GC, norc, RC).
    pub cycles: BTreeMap<String, u64>,
    /// Time relative to "lea" (the malloc/free baseline), per config.
    pub rel_to_lea: BTreeMap<String, f64>,
}

impl Row for Fig7Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("cycles", map_u(&self.cycles)),
            ("rel_to_lea", map_f(&self.rel_to_lea)),
        ]
    }
}

/// Generates Figure 7.
pub fn fig7(scale: Scale) -> Vec<Fig7Row> {
    rc_workloads::all()
        .iter()
        .map(|w| {
            let mut cycles = BTreeMap::new();
            for (name, cfg) in RunConfig::figure7() {
                let r = must_run(w, scale, &cfg);
                cycles.insert(name.to_string(), r.cycles);
            }
            let lea = cycles["lea"] as f64;
            let rel_to_lea = cycles.iter().map(|(k, &v)| (k.clone(), v as f64 / lea)).collect();
            Fig7Row { name: w.name.to_string(), cycles, rel_to_lea }
        })
        .collect()
}

/// Figure 8: execution time under nq / qs / inf / nc.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub name: String,
    /// Virtual cycles per check regime.
    pub cycles: BTreeMap<String, u64>,
    /// Reference-counting + check overhead as % of execution time, per
    /// regime (the quantity behind "27% instead of 11%").
    pub overhead_pct: BTreeMap<String, f64>,
}

impl Row for Fig8Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("cycles", map_u(&self.cycles)),
            ("overhead_pct", map_f(&self.overhead_pct)),
        ]
    }
}

/// Generates Figure 8.
pub fn fig8(scale: Scale) -> Vec<Fig8Row> {
    rc_workloads::all()
        .iter()
        .map(|w| {
            let mut cycles = BTreeMap::new();
            let mut overhead = BTreeMap::new();
            for (name, cfg) in RunConfig::figure8() {
                let r = must_run(w, scale, &cfg);
                cycles.insert(name.to_string(), r.cycles);
                let dynamic = r.stats.rc_cycles + r.stats.check_cycles + r.stats.unscan_cycles;
                overhead.insert(
                    name.to_string(),
                    if r.cycles == 0 { 0.0 } else { 100.0 * dynamic as f64 / r.cycles as f64 },
                );
            }
            Fig8Row { name: w.name.to_string(), cycles, overhead_pct: overhead }
        })
        .collect()
}

/// Figure 9: runtime pointer-assignment categories.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: String,
    /// % of heap pointer assignments with no runtime work (statically
    /// safe).
    pub safe_pct: f64,
    /// % that executed an annotation check.
    pub checked_pct: f64,
    /// % that did reference-count work.
    pub counted_pct: f64,
    /// Local pointer assignments (excluded from the percentages, as in
    /// the paper).
    pub local_assigns: u64,
    /// Total heap pointer assignments.
    pub heap_assigns: u64,
}

impl Row for Fig9Row {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("safe_pct", Json::F(self.safe_pct)),
            ("checked_pct", Json::F(self.checked_pct)),
            ("counted_pct", Json::F(self.counted_pct)),
            ("local_assigns", Json::U(self.local_assigns)),
            ("heap_assigns", Json::U(self.heap_assigns)),
        ]
    }
}

/// Generates Figure 9 (measured under the RC "inf" configuration, like
/// the paper).
pub fn fig9(scale: Scale) -> Vec<Fig9Row> {
    use region_rt::AssignCategory;
    rc_workloads::all()
        .iter()
        .map(|w| {
            let r = must_run(w, scale, &RunConfig::rc_inf());
            Fig9Row {
                name: w.name.to_string(),
                safe_pct: r.stats.assign_pct(AssignCategory::Safe),
                checked_pct: r.stats.assign_pct(AssignCategory::Checked),
                counted_pct: r.stats.assign_pct(AssignCategory::Counted),
                local_assigns: r.stats.assigns_local,
                heap_assigns: r.stats.heap_assigns(),
            }
        })
        .collect()
}

// ---- telemetry ---------------------------------------------------------

/// One workload's telemetry summary (traced run under the qs regime, so
/// the annotation checks actually execute and attribute to sites).
#[derive(Debug, Clone)]
pub struct TelemetryRow {
    /// Benchmark name.
    pub name: String,
    /// Annotation checks executed.
    pub checks: u64,
    /// Reference-count updates (full + early-exit).
    pub rc_updates: u64,
    /// Objects allocated.
    pub allocs: u64,
    /// Regions created.
    pub regions: u64,
    /// Top check sites as `name:line` → check count, hottest first.
    pub top_check_sites: Vec<(String, u64)>,
}

impl Row for TelemetryRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::s(&*self.name)),
            ("checks", Json::U(self.checks)),
            ("rc_updates", Json::U(self.rc_updates)),
            ("allocs", Json::U(self.allocs)),
            ("regions", Json::U(self.regions)),
            (
                "top_check_sites",
                Json::O(
                    self.top_check_sites.iter().map(|(k, v)| (k.clone(), Json::U(*v))).collect(),
                ),
            ),
        ]
    }
}

/// Everything the telemetry pass produces: the per-workload summary rows,
/// the raw tracers (for JSONL export), and a region flamegraph of the
/// nested-region demo.
#[derive(Debug)]
pub struct TelemetryReport {
    /// One summary row per workload.
    pub rows: Vec<TelemetryRow>,
    /// `(workload, tracer)` pairs: ring of recent raw events plus the
    /// exact folded profile for each traced run.
    pub tracers: Vec<(String, Box<Tracer>)>,
    /// Text flamegraph of [`NESTED_DEMO`]'s subregion hierarchy.
    pub flamegraph: String,
}

impl TelemetryReport {
    /// All raw events as JSON Lines, each tagged with its workload.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, t) in &self.tracers {
            out.push_str(&t.events_jsonl(name));
        }
        out
    }

    /// All folded profiles as JSON Lines (one profile object per run).
    pub fn profiles_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, t) in &self.tracers {
            out.push_str(&t.profile().to_json(name).render());
            out.push('\n');
        }
        out
    }
}

/// A small nested-region program whose flamegraph shows three levels of
/// subregions under the root.
pub const NESTED_DEMO: &str = "\
struct t { int x; };
int main() deletes {
    region outer = newregion();
    region mid = newsubregion(outer);
    region inner = newsubregion(mid);
    struct t *a = ralloc(outer, struct t);
    struct t *b = ralloc(mid, struct t);
    struct t *c = ralloc(inner, struct t);
    c->x = 1; b->x = 2; a->x = 3;
    a = null; b = null; c = null;
    deleteregion(inner);
    deleteregion(mid);
    deleteregion(outer);
    return 0;
}
";

/// Runs the telemetry pass: every workload once under qs with full event
/// tracing, plus the nested-region demo for the flamegraph.
pub fn telemetry(scale: Scale) -> TelemetryReport {
    let cfg = RunConfig::rc(rc_lang::CheckMode::Qs).traced();
    let mut rows = Vec::new();
    let mut tracers = Vec::new();
    for w in rc_workloads::all() {
        let r = must_run(&w, scale, &cfg);
        let t = r.tracer.expect("tracing was enabled");
        let p = t.profile();
        let top_check_sites = p
            .hot_check_sites(5)
            .iter()
            .map(|s| (format!("{}:{}", w.name, s.line), s.checks_total()))
            .collect();
        rows.push(TelemetryRow {
            name: w.name.to_string(),
            checks: p.totals.checks_total(),
            rc_updates: p.totals.rc_updates_total(),
            allocs: p.totals.allocs,
            regions: p.totals.regions_created,
            top_check_sites,
        });
        tracers.push((w.name.to_string(), t));
    }

    let demo = rc_lang::interp::prepare(NESTED_DEMO).expect("demo compiles");
    let r = run(&demo, &RunConfig::rc_inf().traced());
    assert!(r.outcome.is_exit(), "nested demo must exit: {:?}", r.outcome);
    let flamegraph = r.profile().expect("traced").flamegraph();

    TelemetryReport { rows, tracers, flamegraph }
}

// ---- rendering ---------------------------------------------------------

/// Formats a sequence of rows as an aligned text table.
pub fn text_table<T: Row>(rows: &[T]) -> String {
    let Some(first) = rows.first() else { return String::new() };
    let headers: Vec<&'static str> = first.fields().into_iter().map(|(k, _)| k).collect();
    fn fmt_val(v: &Json) -> String {
        match v {
            Json::Null => "-".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::U(n) => n.to_string(),
            Json::I(n) => n.to_string(),
            Json::F(f) => format!("{f:.1}"),
            Json::S(s) => s.clone(),
            Json::A(items) => items.iter().map(fmt_val).collect::<Vec<_>>().join(" "),
            Json::O(fields) => fields
                .iter()
                .map(|(k, v)| format!("{k}={}", fmt_val(v)))
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
    let mut grid: Vec<Vec<String>> = vec![headers.iter().map(|h| h.to_string()).collect()];
    for r in rows {
        grid.push(r.fields().iter().map(|(_, v)| fmt_val(v)).collect());
    }
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| grid.iter().map(|row| row[i].len()).max().unwrap_or(0))
        .collect();
    grid.iter()
        .map(|row| {
            row.iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_formats() {
        struct R {
            name: String,
            x: u64,
        }
        impl Row for R {
            fn fields(&self) -> Vec<(&'static str, Json)> {
                vec![("name", Json::s(&*self.name)), ("x", Json::U(self.x))]
            }
        }
        let t = text_table(&[R { name: "aa".into(), x: 1 }, R { name: "b".into(), x: 123 }]);
        assert!(t.contains("name"));
        assert!(t.contains("123"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn rows_render_as_json() {
        let row = Table1Row {
            name: "lcc".into(),
            lines: 10,
            allocs: 5,
            mem_alloc_kb: 1,
            max_use_kb: 1,
            paper_lines: 12_430,
            paper_allocs: 671_103,
        };
        let json = rows_json(&[row]).render();
        assert!(json.starts_with('['));
        assert!(json.contains(r#""name":"lcc""#));
        assert!(json.contains(r#""allocs":5"#));
    }
}
