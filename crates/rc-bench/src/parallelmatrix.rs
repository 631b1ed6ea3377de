//! The parallel execution matrix.
//!
//! [`collect`] sweeps the spawn/join variants of the Figure 7 workloads
//! ([`rc_workloads::parspawn`]) across 1/2/4/8 tasks under three
//! allocator configurations (`lea`, `GC`, `qs`). Every cell runs the
//! *same program* twice:
//!
//! - **sequentially** — [`SchedMode::Inline`], each spawned body executed
//!   to completion at its spawn point (the baseline);
//! - **virtually interleaved** — [`SchedMode::Deterministic`] with the
//!   fixed seed [`DET_SEED`], the tasks interleaved round-robin on one
//!   thread with seeded slices, so preemption points interleave but
//!   replay byte-identically.
//!
//! The parallel contract gated here:
//!
//! 1. **outcome equivalence** — the interleaved outcome key equals the
//!    sequential one (task isolation means schedule cannot change
//!    results);
//! 2. **post-join audit cleanliness** — both runs leave every shard's
//!    heap audit-clean;
//! 3. **merged-report identity** — the merged [`region_rt::Stats`],
//!    virtual cycles, step counts and handoff lists are *identical*
//!    between the two runs: telemetry is an exact merge over shards, not
//!    an approximation;
//! 4. **determinism** — the report contains only virtual-clock numbers,
//!    so two runs of the binary are byte-identical (`tools/pins.sh`
//!    pins the report).
//!
//! The report is a [`Matrix`] with the seed in its header; a cell that
//! panics is one violation, and its contract checks are skipped.
//!
//! Real-thread wall-clock scaling is measured separately by
//! [`speedup_probe`] — wall-clock never enters the JSON report, and
//! `parallel-matrix --speedup` gates it only on machines that actually
//! have cores ([`std::thread::available_parallelism`]).

use std::time::Instant;

use rc_lang::{run_audited, CheckMode, Compiled, RunConfig, SchedMode};
use rc_workloads::parspawn::par_source;
use rc_workloads::Scale;
use region_rt::{critpath_analyze, Json, SchedEventKind, TaskReport};

use crate::matrix::Matrix;
use crate::report::Row;

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::ParallelMatrix.id();

/// The fixed seed the matrix's deterministic-scheduler runs use.
pub const DET_SEED: u64 = 0x5eed_c0ff_ee00_0009;

/// The worker/task counts swept (one spawned task per worker).
pub const WORKERS: [u32; 4] = [1, 2, 4, 8];

/// The configuration axis: both emulation backends plus the paper's
/// default safe RC regime.
pub fn configs() -> Vec<(&'static str, RunConfig)> {
    vec![("lea", RunConfig::lea()), ("GC", RunConfig::gc()), ("qs", RunConfig::rc(CheckMode::Qs))]
}

/// One workload × workers × configuration cell.
#[derive(Debug, Clone, Default)]
pub struct ParallelRun {
    /// Workload name.
    pub workload: String,
    /// Spawned task count (= worker count).
    pub workers: u32,
    /// Configuration display name.
    pub config: String,
    /// The sequential ([`SchedMode::Inline`]) [`rc_lang::Outcome::key`]
    /// — the baseline — or `panicked`.
    pub seq_outcome: String,
    /// The deterministic-scheduler outcome key, or `panicked`.
    pub det_outcome: String,
    /// Whether the two outcome keys agree.
    pub outcomes_match: bool,
    /// Whether both runs left every shard audit-clean.
    pub audits_clean: bool,
    /// Whether merged `Stats`, cycles and steps are identical between the
    /// sequential and interleaved runs.
    pub reports_match: bool,
    /// Region handoffs recorded (one per spawn, in DFS merge order).
    pub handoffs: u64,
    /// Virtual cycles (identical across schedulers when
    /// `reports_match`).
    pub cycles: u64,
    /// Interpreter steps summed over all shards.
    pub steps: u64,
    /// Objects allocated across all shards.
    pub objects: u64,
    /// Total work: Σ per-task charged cycles (equals `cycles` — the
    /// matrix configurations carry no base-compiler factor).
    pub work: u64,
    /// Critical-path length (work/span model over the spawn/join tree).
    pub span: u64,
    /// Ideal parallelism `work/span`, in permille.
    pub ideal_milli: u64,
    /// Critical-path cycles executed by the root task — the serial
    /// prefix/suffix no schedule can overlap away.
    pub root_serial: u64,
    /// Off-path cycles (`work − span`): exactly the cycle gap between
    /// the sequential run and an ideal parallel schedule.
    pub overlapped: u64,
    /// Shared-clock blocked time summed over all tasks under the
    /// deterministic scheduler.
    pub blocked: u64,
    /// Root cycles after its last `join_wait_end` — the post-join merge
    /// cost, charged serially by construction.
    pub merge_tail: u64,
}

impl ParallelRun {
    /// The cell's identity: `workload/wN/config`.
    pub fn key(&self) -> String {
        format!("{}/w{}/{}", self.workload, self.workers, self.config)
    }
}

impl Row for ParallelRun {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::s(&*self.workload)),
            ("workers", Json::U(u64::from(self.workers))),
            ("config", Json::s(&*self.config)),
            ("seq_outcome", Json::s(&*self.seq_outcome)),
            ("det_outcome", Json::s(&*self.det_outcome)),
            ("outcomes_match", Json::Bool(self.outcomes_match)),
            ("audits_clean", Json::Bool(self.audits_clean)),
            ("reports_match", Json::Bool(self.reports_match)),
            ("handoffs", Json::U(self.handoffs)),
            ("cycles", Json::U(self.cycles)),
            ("steps", Json::U(self.steps)),
            ("objects", Json::U(self.objects)),
            ("work", Json::U(self.work)),
            ("span", Json::U(self.span)),
            ("ideal_milli", Json::U(self.ideal_milli)),
            ("root_serial", Json::U(self.root_serial)),
            ("overlapped", Json::U(self.overlapped)),
            ("blocked", Json::U(self.blocked)),
            ("merge_tail", Json::U(self.merge_tail)),
        ]
    }
}

/// Root cycles after the last `join_wait_end` in the root's scheduler
/// log: everything the main task does once the final child has been
/// merged — shard renumbering, result folding, teardown.
fn merge_tail(reports: &[TaskReport]) -> u64 {
    let Some(root) = reports.first() else { return 0 };
    let last_join = root
        .sched
        .events
        .iter()
        .rev()
        .find(|e| matches!(e.kind, SchedEventKind::JoinWaitEnd))
        .map(|e| e.local)
        .unwrap_or(root.cycles);
    root.cycles.saturating_sub(last_join)
}

impl Matrix<ParallelRun> {
    /// A short human summary: cell counts, then the gate.
    pub fn summary(&self) -> String {
        let count = |pred: fn(&ParallelRun) -> bool| self.runs.iter().filter(|r| pred(r)).count();
        let handoffs: u64 = self.runs.iter().map(|r| r.handoffs).sum();
        format!(
            "parallel-matrix: {} cells — {} outcome-equivalent, {} audit-clean, {} \
             report-identical\nregion handoffs observed: {handoffs}\n{}",
            self.runs.len(),
            count(|r| r.outcomes_match),
            count(|r| r.audits_clean),
            count(|r| r.reports_match),
            self.verdict("parallel"),
        )
    }
}

/// Runs the full matrix over all eight workloads.
pub fn collect(scale: Scale) -> Matrix<ParallelRun> {
    let names: Vec<&str> = rc_workloads::all().iter().map(|w| w.name).collect();
    collect_for(scale, &names)
}

/// Runs the matrix over the named workloads: every [`WORKERS`] task count
/// under every [`configs`] configuration, sequential vs deterministic.
pub fn collect_for(scale: Scale, workloads: &[&str]) -> Matrix<ParallelRun> {
    let mut m = Matrix { header: vec![("seed", Json::U(DET_SEED))], ..Matrix::new(SCHEMA, scale) };
    for &name in workloads {
        for workers in WORKERS {
            let Some(src) = par_source(name, scale, workers) else {
                m.violations.push(format!("{name}: no parallel variant"));
                continue;
            };
            let compiled = match rc_lang::prepare(&src) {
                Ok(c) => c,
                Err(e) => {
                    m.violations.push(format!("{name}/w{workers}: does not compile: {e}"));
                    continue;
                }
            };
            for (cfg_name, cfg) in configs() {
                let id = ParallelRun {
                    workload: name.to_string(),
                    workers,
                    config: cfg_name.to_string(),
                    ..ParallelRun::default()
                };
                let key = id.key();
                m.cell(
                    &key,
                    |v| run_cell(id.clone(), &compiled, &cfg, v),
                    || ParallelRun {
                        seq_outcome: "panicked".to_string(),
                        det_outcome: "panicked".to_string(),
                        ..id.clone()
                    },
                );
            }
        }
    }
    m
}

/// Runs the cell `id` names sequentially and interleaved, and applies the
/// contract to it.
fn run_cell(
    id: ParallelRun,
    compiled: &Compiled,
    cfg: &RunConfig,
    violations: &mut Vec<String>,
) -> ParallelRun {
    let key = id.key();
    let seq = run_audited(compiled, cfg);
    let det = run_audited(compiled, &cfg.clone().det_sched(DET_SEED));
    let cp = match critpath_analyze(&det.task_reports) {
        Ok(cp) => Some(cp),
        Err(e) => {
            violations.push(format!("{key}: critpath: {e}"));
            None
        }
    };
    let (seq_outcome, det_outcome) = (seq.outcome.key(), det.outcome.key());
    let cell = ParallelRun {
        outcomes_match: seq_outcome == det_outcome,
        seq_outcome,
        det_outcome,
        audits_clean: matches!(seq.audit, Some(Ok(()))) && matches!(det.audit, Some(Ok(()))),
        reports_match: seq.stats == det.stats
            && seq.cycles == det.cycles
            && seq.steps == det.steps
            && seq.handoffs == det.handoffs,
        handoffs: det.handoffs.len() as u64,
        cycles: det.cycles,
        steps: det.steps,
        objects: det.stats.objects_allocated,
        work: cp.as_ref().map_or(0, |c| c.work),
        span: cp.as_ref().map_or(0, |c| c.span),
        ideal_milli: cp.as_ref().map_or(0, |c| c.ideal_parallelism_milli()),
        root_serial: cp.as_ref().map_or(0, |c| c.root_serial()),
        overlapped: cp.as_ref().map_or(0, |c| c.overlapped()),
        blocked: cp.as_ref().map_or(0, |c| c.blocked_total()),
        merge_tail: merge_tail(&det.task_reports),
        ..id
    };
    gate_cell(&key, &cell, cp.is_some(), violations);
    cell
}

/// Applies the parallel contract to one cell. `critpath_ok` is whether
/// the analyzer accepted the cell's task reports (a rejection already
/// recorded its own violation, so the attribution identities are only
/// checked when it did).
fn gate_cell(key: &str, cell: &ParallelRun, critpath_ok: bool, violations: &mut Vec<String>) {
    let workers = cell.workers;
    if !cell.outcomes_match {
        violations.push(format!(
            "{key}: interleaved outcome {} diverged from sequential {}",
            cell.det_outcome, cell.seq_outcome
        ));
    }
    if !cell.audits_clean {
        violations.push(format!("{key}: a post-join audit failed"));
    }
    if !cell.reports_match {
        violations.push(format!("{key}: merged report differs between schedulers"));
    }
    if cell.handoffs != u64::from(workers) {
        violations
            .push(format!("{key}: expected {workers} region handoffs, saw {}", cell.handoffs));
    }
    // Every variant exits with its task count: a self-check failure in any
    // shard would surface as assert-failed instead.
    let expect = format!("exit:{workers}");
    if cell.seq_outcome != expect {
        violations.push(format!("{key}: expected {expect}, got {}", cell.seq_outcome));
    }
    if critpath_ok {
        // Attribution identities. The matrix configurations carry no
        // base-compiler factor, so Σ per-task cycles must equal the
        // merged virtual clock; and because `reports_match` pins the
        // sequential run to the same cycle count, `overlapped` is
        // exactly the sequential-vs-ideal-parallel cycle gap.
        if cell.work != cell.cycles {
            violations.push(format!("{key}: work {} != merged cycles {}", cell.work, cell.cycles));
        }
        if cell.span > cell.work {
            violations.push(format!("{key}: span {} exceeds work {}", cell.span, cell.work));
        }
        if cell.span + cell.overlapped != cell.work {
            violations.push(format!(
                "{key}: span {} + overlapped {} != work {}",
                cell.span, cell.overlapped, cell.work
            ));
        }
        if cell.root_serial > cell.span {
            violations.push(format!(
                "{key}: root-serial {} exceeds span {}",
                cell.root_serial, cell.span
            ));
        }
        if cell.merge_tail > cell.root_serial {
            // The merge tail runs after every child has ended, so it is
            // always on the critical path and root-executed.
            violations.push(format!(
                "{key}: merge tail {} exceeds root-serial path share {}",
                cell.merge_tail, cell.root_serial
            ));
        }
    }
}

/// Renders the per-cell speedup-attribution table folded into
/// `EXPERIMENTS.md`: where each cell's cycles sit relative to the ideal
/// (`span + overlapped == work`, gated above), restricted to the `lea`
/// configuration — the attribution is schedule-derived and identical in
/// shape across configurations.
pub fn attribution_markdown(rep: &Matrix<ParallelRun>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| workload | tasks | work | span | ideal× | root-serial | overlapped | blocked | merge-tail |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for r in rep.runs.iter().filter(|r| r.config == "lea") {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {}.{:02} | {} | {} | {} | {} |",
            r.workload,
            r.workers,
            r.work,
            r.span,
            r.ideal_milli / 1000,
            r.ideal_milli % 1000 / 10,
            r.root_serial,
            r.overlapped,
            r.blocked,
            r.merge_tail,
        );
    }
    out
}

/// One wall-clock scaling measurement from [`speedup_probe`].
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Workload name.
    pub workload: String,
    /// Wall-clock milliseconds with one real worker thread.
    pub one_ms: f64,
    /// Wall-clock milliseconds with four real worker threads.
    pub four_ms: f64,
}

impl Speedup {
    /// `one_ms / four_ms` — how much faster four workers ran.
    pub fn factor(&self) -> f64 {
        if self.four_ms <= 0.0 {
            0.0
        } else {
            self.one_ms / self.four_ms
        }
    }
}

/// Measures real-thread wall-clock scaling on the named workloads: each
/// one's 4-task variant under [`SchedMode::Threads`] with 1 vs 4 workers
/// (same program, same total iteration budget). The probe runs on any
/// machine; `parallel-matrix --speedup` skips it below 4 hardware
/// threads, where no scaling is physically possible. Wall-clock numbers
/// never enter the deterministic JSON report.
///
/// # Errors
///
/// A workload without a variant, a variant that does not compile, or a
/// run that does not exit is an error naming the workload.
pub fn speedup_probe(scale: Scale, workloads: &[&str]) -> Result<Vec<Speedup>, String> {
    let mut out = Vec::new();
    for &name in workloads {
        let src = par_source(name, scale, 4).ok_or(format!("{name}: no parallel variant"))?;
        let compiled =
            rc_lang::prepare(&src).map_err(|e| format!("{name}/w4: does not compile: {e}"))?;
        let time = |workers: u32| {
            let cfg = RunConfig::lea().with_sched(SchedMode::Threads { workers });
            let t0 = Instant::now();
            let r = rc_lang::run(&compiled, &cfg);
            if r.outcome.is_exit() {
                Ok(t0.elapsed().as_secs_f64() * 1e3)
            } else {
                Err(format!("{name}/w4 on {workers} worker(s): {}", r.outcome.key()))
            }
        };
        // Warm up once, then take the best of three per worker count.
        time(1)?;
        let best = |workers| (0..3).try_fold(f64::MAX, |b, _| time(workers).map(|t| b.min(t)));
        out.push(Speedup { workload: name.to_string(), one_ms: best(1)?, four_ms: best(4)? });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> Matrix<ParallelRun> {
        collect_for(Scale::TINY, &["tile", "moss"])
    }

    #[test]
    fn matrix_covers_workers_by_configs_and_passes() {
        let rep = tiny_matrix();
        assert_eq!(rep.runs.len(), 2 * WORKERS.len() * configs().len());
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        for r in &rep.runs {
            assert!(r.outcomes_match, "{}", r.key());
            assert!(r.audits_clean, "{}", r.key());
            assert!(r.reports_match, "{}", r.key());
            assert_eq!(r.handoffs, u64::from(r.workers), "{}", r.key());
        }
        let summary = rep.summary();
        assert!(summary.contains("PASS"), "{summary}");
    }

    #[test]
    fn attribution_identities_hold_in_every_cell() {
        let rep = tiny_matrix();
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        for r in &rep.runs {
            // Σ per-task cycles == merged clock: the sequential-vs-ideal
            // gap decomposes exactly into span + overlapped.
            assert_eq!(r.work, r.cycles, "{}", r.key());
            assert!(r.span <= r.work, "{}", r.key());
            assert_eq!(r.span + r.overlapped, r.work, "{}", r.key());
            assert!(r.root_serial <= r.span, "{}", r.key());
            assert!(r.merge_tail <= r.root_serial, "{}", r.key());
            assert!(r.span > 0, "{}: span empty", r.key());
            // Spawning real work always leaves some overlappable time.
            if r.workers > 1 {
                assert!(r.overlapped > 0, "{}: nothing overlappable", r.key());
            }
        }
    }

    #[test]
    fn attribution_markdown_lists_lea_cells() {
        let rep = tiny_matrix();
        let md = attribution_markdown(&rep);
        assert!(md.contains("| workload |"), "{md}");
        let rows = md.lines().filter(|l| l.starts_with("| tile") || l.starts_with("| moss"));
        assert_eq!(rows.count(), 2 * WORKERS.len(), "one row per lea cell:\n{md}");
        assert!(!md.contains("| GC |") && !md.contains("| qs |"), "lea only:\n{md}");
    }

    #[test]
    fn report_is_byte_deterministic_and_round_trips() {
        let a = tiny_matrix().render();
        let b = tiny_matrix().render();
        assert_eq!(a, b, "same tree must produce byte-identical reports");
        let doc = Json::parse(&a).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("passed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn speedup_probe_respects_core_count() {
        // The core count decides only whether the binary gates on the
        // timings; the probe measures on any machine.
        let probes = speedup_probe(Scale::TINY, &["tile", "moss"]).expect("both variants run");
        let names: Vec<&str> = probes.iter().map(|p| p.workload.as_str()).collect();
        assert_eq!(names, ["tile", "moss"]);
        for p in &probes {
            assert!(p.one_ms > 0.0 && p.four_ms > 0.0, "{}", p.workload);
        }
    }

    #[test]
    fn speedup_probe_names_a_workload_it_cannot_measure() {
        let err = speedup_probe(Scale::TINY, &["nope"]).unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }
}
