//! Cross-layer provenance: the static↔dynamic check-site join and the
//! Perfetto trace export (`rc-trace-export/v1`).
//!
//! [`collect`] runs one workload with region lifecycle spans and tracing
//! on ([`rc_lang::RunConfig::with_spans`], [`rc_lang::RunConfig::traced`])
//! and joins three layers:
//!
//! - the **static** layer — per check site, the inference verdict and the
//!   [`rlang::ProvenanceReason`] behind it (the lattice meet point or
//!   ⊤-weakening that blocked elimination), via
//!   [`rc_lang::site_verdicts`];
//! - the **dynamic** layer — per site, how often the check actually ran
//!   and failed, from the run's check counter
//!   ([`rc_lang::RunResult::check_counts`]);
//! - the **structural** layer — every region's `newregion` →
//!   `deleteregion` lifecycle as a span in the parent/child tree
//!   ([`region_rt::SpanTree`]).
//!
//! [`chrome_trace`] renders the join as Chrome trace-event JSON that
//! Perfetto loads directly: region spans as `"X"` complete events (one
//! track per region), and the check/GC/fault events of the tracer's ring
//! as `"i"` instants whose args carry `file:line`, the dynamic outcome
//! and the static verdict and reason of the check's site. Every
//! timestamp is virtual-clock, so two exports of the same workload ×
//! configuration are byte-identical — which is what `tools/pins.sh`
//! checks.

use std::collections::BTreeMap;

use rc_lang::interp::{run, Outcome};
use rc_lang::{site_verdicts, RunConfig, SiteVerdict};
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::trace::{check_kind_name, NO_REGION};
use region_rt::{Event, Json, SpanTree, Tracer, NO_CHECK_SITE};

use crate::chrome;
use crate::report::Row;

/// Schema identifier embedded in every export; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::TraceExport.id();

/// One check site's static↔dynamic coverage row.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCoverageRow {
    /// Front-end check-site id.
    pub site: u32,
    /// Source line of the annotated store (0 = unknown).
    pub line: u32,
    /// `true` when the inference eliminated the check.
    pub eliminated: bool,
    /// The inference reason (rendered [`rlang::ProvenanceReason`]).
    pub reason: String,
    /// Times the check executed in this run (0 for eliminated sites
    /// under `inf`, where no check is emitted).
    pub fires: u64,
    /// The subset of `fires` that failed.
    pub fails: u64,
}

impl SiteCoverageRow {
    /// A retained check that ran and never failed — dynamic evidence the
    /// static analysis was merely imprecise here, not wrong: the
    /// candidate set for sharpening the inference.
    pub fn eliminable_in_principle(&self) -> bool {
        !self.eliminated && self.fires > 0 && self.fails == 0
    }

    /// Display verdict string.
    pub fn verdict(&self) -> &'static str {
        if self.eliminated {
            "eliminated"
        } else {
            "retained"
        }
    }
}

impl Row for SiteCoverageRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("site", Json::U(self.site as u64)),
            ("line", Json::U(self.line as u64)),
            ("verdict", Json::s(self.verdict())),
            ("reason", Json::s(&*self.reason)),
            ("fires", Json::U(self.fires)),
            ("fails", Json::U(self.fails)),
        ]
    }
}

/// Everything [`collect`] produces for one workload × configuration.
#[derive(Debug)]
pub struct TraceExport {
    /// Workload name.
    pub workload: String,
    /// Configuration display name (`nq`/`qs`/`inf`/`nc`).
    pub config: String,
    /// Per-site coverage, ascending by site id.
    pub coverage: Vec<SiteCoverageRow>,
    /// Sites the inference eliminated (must equal the count of
    /// `eliminated` coverage rows — asserted by [`collect`]).
    pub eliminated_sites: u64,
    /// The verified span tree.
    pub spans: Box<SpanTree>,
    /// The run's tracer, whose ring holds the raw events the instants
    /// are drawn from.
    pub tracer: Box<Tracer>,
    /// End-of-run virtual time (closes still-open spans in the render).
    pub end_cycles: u64,
}

/// Runs `workload` under `config` (with spans and tracing forced on) and
/// assembles the provenance join.
///
/// # Panics
///
/// Panics if the run does not exit cleanly, if span verification fails,
/// or if the coverage table disagrees with
/// [`rlang::Analysis::eliminated_sites`] — the acceptance invariant.
pub fn collect(
    workload: &Workload,
    config_name: &str,
    config: &RunConfig,
    scale: Scale,
) -> TraceExport {
    let c = prepare_workload(workload, scale);
    let verdicts: Vec<SiteVerdict> = site_verdicts(&c.module, &c.analysis);
    let r = run(&c, &config.clone().with_spans().traced());
    match r.outcome {
        Outcome::Exit(_) => {}
        ref other => panic!("{}/{config_name}: did not exit cleanly: {other:?}", workload.name),
    }
    let spans = r.spans.expect("spans were enabled");
    if let Some(Err(e)) = spans.verification() {
        panic!("{}/{config_name}: span tree malformed: {e}", workload.name);
    }
    let counts = r.check_counts.expect("spans attach the check counter");

    let coverage: Vec<SiteCoverageRow> = verdicts
        .iter()
        .map(|v| SiteCoverageRow {
            site: v.site,
            line: v.line,
            eliminated: v.safe,
            reason: v.reason.clone(),
            fires: counts.runs(v.site),
            fails: counts.fails(v.site),
        })
        .collect();
    let eliminated = coverage.iter().filter(|r| r.eliminated).count();
    assert_eq!(
        eliminated,
        c.analysis.eliminated_sites.len(),
        "{}: coverage totals must match Analysis::eliminated_sites",
        workload.name
    );

    TraceExport {
        workload: workload.name.to_string(),
        config: config_name.to_string(),
        coverage,
        eliminated_sites: eliminated as u64,
        spans,
        tracer: r.tracer.expect("tracing was enabled"),
        end_cycles: r.cycles,
    }
}

/// Renders the export as Chrome trace-event JSON (Perfetto-loadable).
///
/// Layout: pid 1 is the run; each region is a thread (track) named
/// `region <id>`; region lifecycles are `"X"` complete events whose args
/// carry the span's exact folded aggregates; the checks, collections and
/// injected faults in the tracer's ring are `"i"` thread-scoped instants,
/// a check's verdict and reason those of its site's coverage row.
/// Still-open spans (the traditional region, leaked regions) close at
/// `end_cycles`.
pub fn chrome_trace(x: &TraceExport) -> Json {
    let by_site: BTreeMap<u32, &SiteCoverageRow> = x.coverage.iter().map(|r| (r.site, r)).collect();
    let mut events: Vec<Json> = Vec::new();

    for s in x.spans.spans() {
        let dur = s.closed_at.unwrap_or(x.end_cycles).saturating_sub(s.opened_at);
        let name = if s.region == 0 {
            "region 0 (traditional)".to_string()
        } else {
            format!("region {}", s.region)
        };
        events.push(chrome::event(
            name,
            "region",
            s.region as u64,
            s.opened_at,
            Some(dur),
            vec![
                (
                    "parent",
                    if s.parent == NO_REGION { Json::Null } else { Json::U(s.parent as u64) },
                ),
                ("live_at_exit", Json::Bool(s.closed_at.is_none())),
                ("allocs", Json::U(s.allocs)),
                ("alloc_words", Json::U(s.alloc_words)),
                ("rc_updates", Json::U(s.rc_updates)),
                ("checks", Json::U(s.checks)),
                ("checks_failed", Json::U(s.checks_failed)),
                ("freed_words", Json::U(s.freed_words)),
            ],
        ));
    }

    for ev in x.tracer.events() {
        match *ev {
            Event::CheckRun { kind, region, site, check_site, passed, at } => {
                let (line, verdict, reason) = match by_site.get(&check_site) {
                    Some(r) => (r.line, r.verdict(), r.reason.as_str()),
                    None => (site, "retained", ""),
                };
                let known = |v: Json| if check_site == NO_CHECK_SITE { Json::Null } else { v };
                events.push(chrome::event(
                    format!("chk {}", check_kind_name(kind)),
                    "check",
                    region as u64,
                    at,
                    None,
                    vec![
                        ("src", known(Json::S(format!("{}:{line}", x.workload)))),
                        ("site", known(Json::U(check_site as u64))),
                        ("kind", Json::s(check_kind_name(kind))),
                        ("passed", Json::Bool(passed)),
                        ("verdict", Json::s(verdict)),
                        ("reason", Json::s(reason)),
                    ],
                ));
            }
            Event::GcCollection { marked_words, swept_objects, at } => {
                events.push(chrome::event(
                    "gc collection",
                    "gc",
                    0,
                    at,
                    None,
                    vec![
                        ("marked_words", Json::U(marked_words)),
                        ("swept_objects", Json::U(swept_objects)),
                    ],
                ));
            }
            Event::Fault { plane, op, at } => {
                events.push(chrome::event(
                    format!("fault {}", plane.name()),
                    "fault",
                    0,
                    at,
                    None,
                    vec![("op", Json::U(op))],
                ));
            }
            // Region lifecycles are the spans, and allocs and RC updates
            // appear as their exact aggregates: raw instants for them
            // would dwarf the trace. Audits belong to no region's track.
            _ => {}
        }
    }

    chrome::document(
        events,
        vec![
            ("schema", Json::s(SCHEMA)),
            ("workload", Json::s(&*x.workload)),
            ("config", Json::s(&*x.config)),
            ("eliminated_sites", Json::U(x.eliminated_sites)),
            ("notes_dropped", Json::U(x.tracer.dropped())),
            ("end_cycles", Json::U(x.end_cycles)),
        ],
    )
}

/// One workload's check-site coverage summary (the EXPERIMENTS.md row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageSummaryRow {
    /// Workload name.
    pub workload: String,
    /// Annotated check sites in the generated source.
    pub sites: u64,
    /// Sites the inference eliminated.
    pub eliminated: u64,
    /// Sites retained (checked at runtime under `qs`).
    pub retained: u64,
    /// Retained sites that fired at least once and never failed.
    pub never_failing: u64,
    /// Total dynamic check executions across all sites.
    pub fires: u64,
    /// Total dynamic check failures.
    pub fails: u64,
}

impl Row for CoverageSummaryRow {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::s(&*self.workload)),
            ("sites", Json::U(self.sites)),
            ("eliminated", Json::U(self.eliminated)),
            ("retained", Json::U(self.retained)),
            ("never_failing", Json::U(self.never_failing)),
            ("fires", Json::U(self.fires)),
            ("fails", Json::U(self.fails)),
        ]
    }
}

/// Runs every paper workload under `qs` with spans on and summarizes
/// static↔dynamic check coverage; also returns the full per-site export
/// for `exemplar` (the table EXPERIMENTS.md prints in full).
pub fn summarize(scale: Scale, exemplar: &str) -> (Vec<CoverageSummaryRow>, TraceExport) {
    let qs = RunConfig::rc(rc_lang::CheckMode::Qs);
    let mut rows = Vec::new();
    let mut exemplar_export = None;
    for w in rc_workloads::all() {
        let x = collect(&w, "qs", &qs, scale);
        rows.push(CoverageSummaryRow {
            workload: x.workload.clone(),
            sites: x.coverage.len() as u64,
            eliminated: x.eliminated_sites,
            retained: x.coverage.len() as u64 - x.eliminated_sites,
            never_failing: x.coverage.iter().filter(|r| r.eliminable_in_principle()).count() as u64,
            fires: x.coverage.iter().map(|r| r.fires).sum(),
            fails: x.coverage.iter().map(|r| r.fails).sum(),
        });
        if w.name == exemplar {
            exemplar_export = Some(x);
        }
    }
    let exemplar_export =
        exemplar_export.unwrap_or_else(|| panic!("exemplar workload {exemplar:?} not found"));
    (rows, exemplar_export)
}

/// Renders the coverage table as Markdown (the EXPERIMENTS.md section).
pub fn coverage_markdown(x: &TraceExport) -> String {
    let mut out = String::new();
    out.push_str("| site | line | verdict | fires | fails | reason |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for r in &x.coverage {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            r.site,
            r.line,
            r.verdict(),
            r.fires,
            r.fails,
            r.reason
        ));
    }
    let eliminable = x.coverage.iter().filter(|r| r.eliminable_in_principle()).count();
    out.push_str(&format!(
        "\n{} sites, {} eliminated statically, {} retained-but-never-failing \
         (candidates for a sharper inference).\n",
        x.coverage.len(),
        x.eliminated_sites,
        eliminable
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_lang::CheckMode;

    fn export(config_name: &str, cfg: RunConfig) -> TraceExport {
        let w = rc_workloads::by_name("cfrac").expect("cfrac exists");
        collect(&w, config_name, &cfg, Scale::TINY)
    }

    #[test]
    fn coverage_matches_the_analysis_and_spans_verify() {
        let x = export("qs", RunConfig::rc(CheckMode::Qs));
        assert!(!x.coverage.is_empty(), "cfrac has annotated sites");
        // collect() asserts the eliminated totals internally; re-state the
        // dynamic side: under qs every retained *and* eliminated site that
        // executes fires its check.
        let fired: u64 = x.coverage.iter().map(|r| r.fires).sum();
        assert!(fired > 0, "qs executes annotation checks");
        assert_eq!(x.spans.verification(), Some(&Ok(())));
    }

    #[test]
    fn inf_regime_skips_eliminated_sites_dynamically() {
        let x = export("inf", RunConfig::rc_inf());
        for r in &x.coverage {
            if r.eliminated {
                assert_eq!(r.fires, 0, "site {} was eliminated but still fired under inf", r.site);
                assert_eq!(r.reason, "entailed by the flow state");
            }
        }
    }

    #[test]
    fn chrome_trace_is_deterministic_and_carries_provenance() {
        let a = chrome_trace(&export("qs", RunConfig::rc(CheckMode::Qs))).render_pretty();
        let b = chrome_trace(&export("qs", RunConfig::rc(CheckMode::Qs))).render_pretty();
        assert_eq!(a, b, "two exports of the same run must be byte-identical");
        assert!(a.contains(r#""schema":"#) && a.contains(SCHEMA));
        assert!(a.contains(r#""ph": "X""#) || a.contains(r#""ph":"X""#), "span events present");
        assert!(a.contains("retained") || a.contains("eliminated"));
        // Valid JSON round trip through our own parser.
        Json::parse(&a).expect("export parses");
    }

    #[test]
    fn coverage_markdown_totals_line_up() {
        let x = export("qs", RunConfig::rc(CheckMode::Qs));
        let md = coverage_markdown(&x);
        assert!(md.contains("| site | line | verdict |"));
        assert!(md.contains(&format!("{} eliminated statically", x.eliminated_sites)));
    }
}
