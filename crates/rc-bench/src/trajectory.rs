//! Machine-readable benchmark trajectories and the regression gate.
//!
//! [`collect`] reruns the paper's Figure 7/8 workload × configuration
//! matrix with the timeline sampler on and assembles a
//! schema-versioned [`BenchReport`]: per-run virtual-clock totals plus
//! the periodic [`MetricsSnapshot`] series. The report serializes to
//! `BENCH_rc.json`; because every number is virtual-clock (deterministic
//! across machines and runs), two reports from the same source tree are
//! byte-identical, which is what makes a committed baseline and a hard
//! CI gate feasible.
//!
//! [`diff_reports`] compares two serialized reports run-by-run and
//! metric-by-metric. Only two metrics *gate* (fail CI): total `cycles`
//! beyond [`CYCLE_REGRESSION_PCT`] and `peak_live_words` beyond
//! [`PEAK_REGRESSION_PCT`]. Everything else is reported as context. A
//! run present in the baseline but missing from the new report is a
//! regression; a new run is reported but does not gate (adding coverage
//! must not fail the gate).
//!
//! The schema string [`SCHEMA`] names the JSON layout. Any change to
//! key names, key meanings, or units bumps the version suffix, and
//! [`diff_reports`] refuses mismatched schemas — see
//! `docs/OBSERVABILITY.md` for the policy.

use rc_lang::interp::{run, Outcome};
use rc_lang::RunConfig;
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::{sparkline, Json, MetricsSnapshot};

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::Trajectory.id();

/// Gate threshold: a run regresses when total cycles grow by more than
/// this percentage over the baseline.
pub const CYCLE_REGRESSION_PCT: f64 = 5.0;

/// Gate threshold: a run regresses when peak live words grow by more
/// than this percentage over the baseline.
pub const PEAK_REGRESSION_PCT: f64 = 10.0;

/// Sampling interval (runtime events per snapshot) used by [`collect`] —
/// coarse enough to keep the committed baseline small.
pub const BENCH_SAMPLE_INTERVAL: u64 = 512;

/// Sample cap used by [`collect`]; decimation keeps longer runs under
/// this many snapshots, bounding the committed baseline's size.
pub const BENCH_SAMPLE_CAP: usize = 48;

/// One workload × configuration execution: end-of-run totals plus the
/// sampled timeline.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Workload name (Table 1 row).
    pub workload: String,
    /// Configuration display name (Figure 7/8 column).
    pub config: String,
    /// Total virtual cycles.
    pub cycles: u64,
    /// Interpreter steps executed.
    pub steps: u64,
    /// Peak live words.
    pub peak_live_words: u64,
    /// Live words at exit.
    pub final_live_words: u64,
    /// Annotation checks executed (sameregion + parentptr + traditional).
    pub checks: u64,
    /// Reference-count updates (full + early-exit).
    pub rc_updates: u64,
    /// Objects allocated.
    pub objects_allocated: u64,
    /// Words allocated.
    pub words_allocated: u64,
    /// The sampled timeline (empty when the `telemetry` feature is off).
    pub samples: Vec<MetricsSnapshot>,
}

impl BenchRun {
    /// The identity runs are matched by when diffing: `workload/config`.
    pub fn key(&self) -> String {
        format!("{}/{}", self.workload, self.config)
    }

    /// Encodes the run as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::s(&*self.workload)),
            ("config", Json::s(&*self.config)),
            ("cycles", Json::U(self.cycles)),
            ("steps", Json::U(self.steps)),
            ("peak_live_words", Json::U(self.peak_live_words)),
            ("final_live_words", Json::U(self.final_live_words)),
            ("checks", Json::U(self.checks)),
            ("rc_updates", Json::U(self.rc_updates)),
            ("objects_allocated", Json::U(self.objects_allocated)),
            ("words_allocated", Json::U(self.words_allocated)),
            (
                "samples",
                Json::A(self.samples.iter().map(MetricsSnapshot::to_json).collect()),
            ),
        ])
    }
}

/// A full trajectory report: every Figure 7/8 run at one scale.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Workload scale the report was collected at.
    pub scale: u32,
    /// All runs, in workload-major, configuration-minor order.
    pub runs: Vec<BenchRun>,
}

impl BenchReport {
    /// Encodes the report, schema string first.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::s(SCHEMA)),
            ("scale", Json::U(self.scale as u64)),
            ("runs", Json::A(self.runs.iter().map(BenchRun::to_json).collect())),
        ])
    }

    /// Renders the report as pretty-printed JSON (the `BENCH_rc.json`
    /// format).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// Renders the baseline variant: same schema, sample series dropped.
    /// The regression gate compares only the scalar totals, so the
    /// committed `baselines/BENCH_baseline.json` stays a few kilobytes
    /// instead of megabytes of snapshot history.
    pub fn render_baseline(&self) -> String {
        let stripped = BenchReport {
            scale: self.scale,
            runs: self
                .runs
                .iter()
                .map(|r| BenchRun { samples: Vec::new(), ..r.clone() })
                .collect(),
        };
        stripped.render()
    }
}

/// The Figure 7 and Figure 8 configuration columns, deduplicated: the
/// paper's "RC" (Figure 7) and "inf" (Figure 8) are the same
/// configuration, so it appears once, under "RC".
fn configs() -> Vec<(&'static str, RunConfig)> {
    let mut cfgs = RunConfig::figure7();
    cfgs.extend(RunConfig::figure8().into_iter().filter(|(n, _)| *n != "inf"));
    cfgs
}

/// Collects the full trajectory report for all eight workloads.
pub fn collect(scale: Scale) -> BenchReport {
    collect_for(scale, &rc_workloads::all())
}

/// Collects a trajectory report for the given workloads (all Figure 7/8
/// configurations each), sampling at [`BENCH_SAMPLE_INTERVAL`].
pub fn collect_for(scale: Scale, workloads: &[Workload]) -> BenchReport {
    let mut runs = Vec::new();
    for w in workloads {
        let c = prepare_workload(w, scale);
        for (name, cfg) in configs() {
            let cfg = cfg.with_sampling(BENCH_SAMPLE_INTERVAL, BENCH_SAMPLE_CAP);
            let r = run(&c, &cfg);
            match r.outcome {
                Outcome::Exit(_) => {}
                ref other => panic!("{}/{name}: did not exit cleanly: {other:?}", w.name),
            }
            let s = &r.stats;
            runs.push(BenchRun {
                workload: w.name.to_string(),
                config: name.to_string(),
                cycles: r.cycles,
                steps: r.steps,
                peak_live_words: s.peak_live_words,
                final_live_words: s.live_words,
                checks: s.checks_sameregion + s.checks_parentptr + s.checks_traditional,
                rc_updates: s.rc_updates_full + s.rc_updates_same,
                objects_allocated: s.objects_allocated,
                words_allocated: s.words_allocated,
                samples: r.timeline.map(|t| t.samples().to_vec()).unwrap_or_default(),
            });
        }
    }
    BenchReport { scale: scale.0, runs }
}

/// Renders the timeline section for `EXPERIMENTS.md`: per workload, the
/// RC configuration's live-heap and pages-in-use series as sparklines
/// with their peaks, so heap phases are visible at a glance.
pub fn timeline_section(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Sampled every {BENCH_SAMPLE_INTERVAL} runtime events on the virtual \
         clock (deterministic; see `docs/OBSERVABILITY.md`). Each row charts \
         the RC configuration's run from start to exit.\n"
    );
    let _ = writeln!(out, "```");
    for r in report.runs.iter().filter(|r| r.config == "RC") {
        let live: Vec<u64> = r.samples.iter().map(|s| s.live_words).collect();
        let pages: Vec<u64> = r.samples.iter().map(|s| s.gauges.pages_in_use as u64).collect();
        let checks: Vec<u64> = r.samples.iter().map(|s| s.d_checks).collect();
        let _ = writeln!(out, "{}", r.workload);
        let _ = writeln!(
            out,
            "  live words    |{}| peak {}",
            sparkline(&live),
            r.peak_live_words
        );
        let _ = writeln!(
            out,
            "  pages in use  |{}| max {}",
            sparkline(&pages),
            pages.iter().max().copied().unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "  checks/window |{}| total {}",
            sparkline(&checks),
            r.checks
        );
    }
    let _ = writeln!(out, "```");
    out
}

/// One compared metric of one run.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// `workload/config` identity.
    pub key: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub old: u64,
    /// New value.
    pub new: u64,
    /// Signed percentage change ((new-old)/old × 100; 0 when old is 0
    /// and new is 0, +∞ shown as the raw delta otherwise).
    pub delta_pct: f64,
    /// The gate threshold, for gated metrics.
    pub gate_pct: Option<f64>,
    /// Whether this row trips its gate.
    pub regressed: bool,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Per-metric comparisons for runs present in both reports.
    pub rows: Vec<DiffRow>,
    /// Runs present in the baseline but missing from the new report
    /// (each one is a regression).
    pub missing: Vec<String>,
    /// Runs present only in the new report (informational).
    pub added: Vec<String>,
}

impl DiffReport {
    /// Whether any gate tripped: a gated metric beyond threshold, or a
    /// baseline run that disappeared.
    pub fn regressed(&self) -> bool {
        !self.missing.is_empty() || self.rows.iter().any(|r| r.regressed)
    }

    /// Renders the aligned delta table (changed rows and every gated
    /// metric; unchanged ungated metrics are omitted for signal).
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>16} {:>14} {:>14} {:>9}  verdict",
            "run", "metric", "old", "new", "delta"
        );
        for r in &self.rows {
            if r.gate_pct.is_none() && r.old == r.new {
                continue;
            }
            let verdict = match (r.gate_pct, r.regressed) {
                (Some(_), true) => "REGRESSED",
                (Some(g), false) => {
                    if r.delta_pct < 0.0 {
                        "improved"
                    } else if r.delta_pct == 0.0 {
                        "ok"
                    } else {
                        // Grew, but within the gate.
                        let _ = g;
                        "ok (within gate)"
                    }
                }
                (None, _) => "info",
            };
            let _ = writeln!(
                out,
                "{:<24} {:>16} {:>14} {:>14} {:>+8.2}%  {}",
                r.key, r.metric, r.old, r.new, r.delta_pct, verdict
            );
        }
        for key in &self.missing {
            let _ = writeln!(out, "{key:<24} {:>16}  missing from new report  REGRESSED", "run");
        }
        for key in &self.added {
            let _ = writeln!(out, "{key:<24} {:>16}  new run (not in baseline)  info", "run");
        }
        out
    }
}

/// Metrics compared per run: `(name, gate percentage)`. `None` = report
/// only, never gate.
const METRICS: &[(&str, Option<f64>)] = &[
    ("cycles", Some(CYCLE_REGRESSION_PCT)),
    ("peak_live_words", Some(PEAK_REGRESSION_PCT)),
    ("steps", None),
    ("final_live_words", None),
    ("checks", None),
    ("rc_updates", None),
    ("objects_allocated", None),
    ("words_allocated", None),
];

fn pct(old: u64, new: u64) -> f64 {
    if old == new {
        0.0
    } else if old == 0 {
        100.0 * new as f64
    } else {
        (new as f64 - old as f64) / old as f64 * 100.0
    }
}

/// Parses a serialized report and indexes its runs by key, validating
/// the schema string.
fn parse_report(text: &str, label: &str) -> Result<Vec<(String, Json)>, String> {
    let doc = Json::parse(text).map_err(|e| format!("{label}: not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("{label}: schema {s:?}, expected {SCHEMA:?}")),
        None => return Err(format!("{label}: missing schema field")),
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{label}: missing runs array"))?;
    let mut out = Vec::new();
    for r in runs {
        let w = r.get("workload").and_then(Json::as_str);
        let c = r.get("config").and_then(Json::as_str);
        match (w, c) {
            (Some(w), Some(c)) => out.push((format!("{w}/{c}"), r.clone())),
            _ => return Err(format!("{label}: run without workload/config")),
        }
    }
    Ok(out)
}

/// Diffs two serialized reports (baseline first). Errors are malformed
/// input — schema mismatch, bad JSON, missing fields — as opposed to
/// regressions, which come back inside the [`DiffReport`].
pub fn diff_reports(old_text: &str, new_text: &str) -> Result<DiffReport, String> {
    let old = parse_report(old_text, "baseline")?;
    let new = parse_report(new_text, "new report")?;
    let mut diff = DiffReport::default();
    for (key, o) in &old {
        let Some((_, n)) = new.iter().find(|(k, _)| k == key) else {
            diff.missing.push(key.clone());
            continue;
        };
        for &(metric, gate_pct) in METRICS {
            let ov = o.get(metric).and_then(Json::as_u64).ok_or_else(|| {
                format!("baseline: run {key} missing metric {metric}")
            })?;
            let nv = n.get(metric).and_then(Json::as_u64).ok_or_else(|| {
                format!("new report: run {key} missing metric {metric}")
            })?;
            let delta_pct = pct(ov, nv);
            diff.rows.push(DiffRow {
                key: key.clone(),
                metric,
                old: ov,
                new: nv,
                delta_pct,
                gate_pct,
                regressed: gate_pct.is_some_and(|g| delta_pct > g),
            });
        }
    }
    for (key, _) in &new {
        if !old.iter().any(|(k, _)| k == key) {
            diff.added.push(key.clone());
        }
    }
    Ok(diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        collect_for(Scale::TINY, &[rc_workloads::by_name("tile").unwrap()])
    }

    #[test]
    fn collect_covers_the_config_matrix_and_round_trips() {
        let rep = tiny_report();
        // 5 Figure 7 configs + 3 Figure 8 configs (inf folded into RC).
        assert_eq!(rep.runs.len(), 8);
        assert!(rep.runs.iter().all(|r| r.cycles > 0 && r.steps > 0));
        let text = rep.render();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("runs").and_then(Json::as_array).unwrap().len(),
            rep.runs.len()
        );
        // Self-diff is clean: every gated metric identical.
        let diff = diff_reports(&text, &text).unwrap();
        assert!(!diff.regressed(), "{}", diff.table());
        assert!(diff.rows.iter().all(|r| r.delta_pct == 0.0));
        // The samples-stripped baseline variant gates identically: the
        // diff reads only the scalar totals.
        let diff = diff_reports(&rep.render_baseline(), &text).unwrap();
        assert!(!diff.regressed(), "{}", diff.table());
    }

    #[test]
    fn sampling_is_present_when_telemetry_is_on() {
        let rep = tiny_report();
        let rc = rep.runs.iter().find(|r| r.config == "RC").unwrap();
        assert!(!rc.samples.is_empty(), "RC run must carry samples");
        assert!(rc.samples.len() <= BENCH_SAMPLE_CAP);
        let section = timeline_section(&rep);
        assert!(section.contains("tile"), "{section}");
        assert!(section.contains("live words"), "{section}");
    }

    #[test]
    fn injected_regressions_trip_the_gates() {
        let rep = tiny_report();
        let base = rep.render();
        // +10% cycles on every run: regression.
        let mut bumped = rep.clone();
        for r in &mut bumped.runs {
            r.cycles += r.cycles / 10 + 1;
        }
        let diff = diff_reports(&base, &bumped.render()).unwrap();
        assert!(diff.regressed(), "10% cycle growth must trip the 5% gate");
        assert!(diff.table().contains("REGRESSED"));
        // +4% cycles: within the gate.
        let mut mild = rep.clone();
        for r in &mut mild.runs {
            r.cycles += r.cycles * 4 / 100;
        }
        let diff = diff_reports(&base, &mild.render()).unwrap();
        assert!(!diff.regressed(), "4% cycle growth is within the 5% gate:\n{}", diff.table());
        // +12% peak memory: regression; improvement is not.
        let mut fat = rep.clone();
        for r in &mut fat.runs {
            r.peak_live_words += r.peak_live_words * 12 / 100 + 1;
        }
        assert!(diff_reports(&base, &fat.render()).unwrap().regressed());
        let mut slim = rep.clone();
        for r in &mut slim.runs {
            r.cycles -= r.cycles / 10;
        }
        assert!(!diff_reports(&base, &slim.render()).unwrap().regressed());
    }

    #[test]
    fn missing_runs_regress_and_added_runs_do_not() {
        let rep = tiny_report();
        let base = rep.render();
        let mut fewer = rep.clone();
        fewer.runs.pop();
        let diff = diff_reports(&base, &fewer.render()).unwrap();
        assert!(diff.regressed(), "a vanished run is a regression");
        assert_eq!(diff.missing.len(), 1);
        // The reverse direction only reports the extra run.
        let diff = diff_reports(&fewer.render(), &base).unwrap();
        assert!(!diff.regressed());
        assert_eq!(diff.added.len(), 1);
    }

    #[test]
    fn schema_mismatch_is_an_error_not_a_regression() {
        let rep = tiny_report().render();
        let other = rep.replace(SCHEMA, "rc-bench-trajectory/v0");
        assert!(diff_reports(&other, &rep).unwrap_err().contains("schema"));
        assert!(diff_reports(&rep, "not json").is_err());
    }
}
