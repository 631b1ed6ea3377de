//! Machine-readable benchmark trajectories.
//!
//! [`collect`] reruns the paper's Figure 7/8 workload × configuration
//! matrix with the timeline sampler on and assembles a
//! schema-versioned [`BenchReport`]: per-run virtual-clock totals plus
//! the periodic [`MetricsSnapshot`] series. The report serializes to
//! `BENCH_rc.json`; because every number is virtual-clock (deterministic
//! across machines and runs), two reports from the same source tree are
//! byte-identical, so `tools/pins.sh` pins both it and the committed
//! samples-stripped `baselines/BENCH_baseline.json` exactly.
//!
//! The schema string [`SCHEMA`] names the JSON layout. Any change to
//! key names, key meanings, or units bumps the version suffix — see
//! `docs/OBSERVABILITY.md` for the policy.

use rc_lang::interp::{run, Outcome};
use rc_lang::RunConfig;
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::{sparkline, Json, MetricsSnapshot};

use crate::report::{rows_json, Row};

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::Trajectory.id();

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
    /// The sampled timeline.
    pub samples: Vec<MetricsSnapshot>,
}

impl Row for BenchRun {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
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
            ("samples", Json::A(self.samples.iter().map(MetricsSnapshot::to_json).collect())),
        ]
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
            ("runs", rows_json(&self.runs)),
        ])
    }

    /// Renders the report as pretty-printed JSON (the `BENCH_rc.json`
    /// format).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// Renders the baseline variant: same schema, sample series dropped,
    /// so the committed `baselines/BENCH_baseline.json` stays a few
    /// kilobytes instead of megabytes of snapshot history.
    pub fn render_baseline(&self) -> String {
        let stripped = BenchReport {
            scale: self.scale,
            runs: self.runs.iter().map(|r| BenchRun { samples: Vec::new(), ..r.clone() }).collect(),
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
        let _ = writeln!(out, "  live words    |{}| peak {}", sparkline(&live), r.peak_live_words);
        let _ = writeln!(
            out,
            "  pages in use  |{}| max {}",
            sparkline(&pages),
            pages.iter().max().copied().unwrap_or(0)
        );
        let _ = writeln!(out, "  checks/window |{}| total {}", sparkline(&checks), r.checks);
    }
    let _ = writeln!(out, "```");
    out
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
        assert_eq!(doc.get("runs").and_then(Json::as_array).unwrap().len(), rep.runs.len());
        // The baseline variant keeps every run and drops its samples.
        let base = Json::parse(&rep.render_baseline()).unwrap();
        let runs = base.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(runs.len(), rep.runs.len());
        assert!(runs
            .iter()
            .all(|r| r.get("samples").and_then(Json::as_array).is_some_and(|s| s.is_empty())));
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
}
