//! The checkpoint-recovery matrix.
//!
//! [`collect`] sweeps the Figure 7 workloads under five allocator/check
//! configurations (`lea`, `GC`, `nq`, `qs`, `inf`) crossed with a set of
//! [`RecoveryScenario`]s — a clean baseline, scheduled fault injections,
//! and organic page-budget squeezes — each paired with the
//! [`RecoveryPolicy`] meant to survive it. Every cell runs under
//! [`rc_lang::supervise()`]: trap → checkpoint → validate by
//! [`region_rt::Heap::restore`] → apply the next rung → re-execute. The
//! recovery contract gated here:
//!
//! 1. **no panics** — supervision ends in a typed
//!    [`rc_lang::SupervisionOutcome`], never an unwind;
//! 2. **checkpoints are actionable** — every snapshot taken along the
//!    way must restore (which transitively gates verification, audit
//!    and the re-snapshot byte fixpoint);
//! 3. **post-recovery audit cleanliness** — every attempt leaves the
//!    heap audit-clean;
//! 4. **recovery works** — scenarios the policy can answer (budget
//!    squeezes, RC saturation, check chaos) must end
//!    [`Completed`](rc_lang::SupervisionOutcome::Completed); unanswerable ones
//!    (sticky backend-independent OOM) must end
//!    [`PolicyExhausted`](rc_lang::SupervisionOutcome::PolicyExhausted) — nothing
//!    lands [`Unrecoverable`](rc_lang::SupervisionOutcome::Unrecoverable).
//!
//! Violations are collected into the report (and fail the gate) rather
//! than thrown, so one bad cell never hides the rest. Every number is
//! virtual-clock, so two reports from the same tree are byte-identical —
//! `tools/pins.sh` pins the report. The schema string [`SCHEMA`]
//! names the layout; see `docs/ROBUSTNESS.md`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rc_lang::{supervise_compiled, CheckMode, RecoveryPolicy, RunConfig, SupervisionReport};
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::{FaultMode, FaultPlan, Json};

use crate::panic_msg;

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::RecoveryMatrix.id();

/// What a scenario's supervision must end as for the gate to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Must end [`rc_lang::SupervisionOutcome::Completed`] — the policy answers
    /// this failure.
    Complete,
    /// Must end [`rc_lang::SupervisionOutcome::PolicyExhausted`] *if the fault
    /// fires* — no rung can answer it, but degradation must stay orderly.
    /// Cells where the schedule never fires complete cleanly instead.
    Exhaust,
}

/// One column of the recovery matrix: a failure to inject and the policy
/// meant to survive it.
#[derive(Debug, Clone)]
pub struct RecoveryScenario {
    /// Scenario name (stable; part of a cell's identity key).
    pub name: &'static str,
    /// The injection plan (empty for clean/organic scenarios).
    pub plan: FaultPlan,
    /// Heap page budget (0 = unlimited).
    pub page_budget: usize,
    /// The recovery policy supervising this scenario.
    pub policy: RecoveryPolicy,
    /// The gated verdict.
    pub expect: Expect,
}

/// The standard scenario sweep.
///
/// Each scenario pairs a failure with the policy rung that answers it:
/// the page-budget squeeze escalates its budget away, RC saturation and
/// check chaos degrade down the `qs → nq → norc` ladder until the
/// faulting plane goes quiet, and the sticky backend-independent OOM
/// proves orderly exhaustion.
pub fn scenarios() -> Vec<RecoveryScenario> {
    vec![
        RecoveryScenario {
            name: "clean",
            plan: FaultPlan::new(),
            page_budget: 0,
            policy: RecoveryPolicy::standard(),
            expect: Expect::Complete,
        },
        RecoveryScenario {
            name: "oom-sticky",
            plan: FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![5])).sticky(),
            page_budget: 0,
            policy: RecoveryPolicy::standard(),
            expect: Expect::Exhaust,
        },
        RecoveryScenario {
            name: "budget-squeeze",
            plan: FaultPlan::new(),
            page_budget: 4,
            policy: RecoveryPolicy::standard().with_page_budget_steps(vec![16, 64, 0]),
            expect: Expect::Complete,
        },
        RecoveryScenario {
            name: "rc-saturate",
            plan: FaultPlan::new().saturate_rc(FaultMode::Schedule(vec![40])).sticky(),
            page_budget: 0,
            policy: RecoveryPolicy::standard(),
            expect: Expect::Complete,
        },
        RecoveryScenario {
            name: "check-chaos",
            plan: FaultPlan::new().fail_checks(FaultMode::Schedule(vec![10])).sticky(),
            page_budget: 0,
            policy: RecoveryPolicy::standard(),
            expect: Expect::Complete,
        },
    ]
}

/// The configuration axis: the acceptance sweep `lea`, `GC`, `nq`, `qs`,
/// `inf` — two emulation backends plus the three safe RC check regimes
/// (the ladder's own rungs).
pub fn configs() -> Vec<(&'static str, RunConfig)> {
    vec![
        ("lea", RunConfig::lea()),
        ("GC", RunConfig::gc()),
        ("nq", RunConfig::rc(CheckMode::Nq)),
        ("qs", RunConfig::rc(CheckMode::Qs)),
        ("inf", RunConfig::rc(CheckMode::Inf)),
    ]
}

/// One workload × scenario × configuration cell.
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Workload name.
    pub workload: String,
    /// Scenario name.
    pub scenario: String,
    /// Configuration display name.
    pub config: String,
    /// How supervision ended: `completed`, `policy-exhausted`,
    /// `unrecoverable` or `panicked`.
    pub outcome: String,
    /// Attempts executed.
    pub attempts: u32,
    /// Whether completion came from a retry (recovery actually happened).
    pub recovered: bool,
    /// Whether every checkpoint taken restored cleanly.
    pub checkpoints_ok: bool,
    /// Whether every attempt left the heap audit-clean.
    pub audits_clean: bool,
    /// Total fault injections across all attempts.
    pub injected: u64,
    /// Virtual cycles executing attempts.
    pub run_cycles: u64,
    /// Virtual cycles burned in backoff.
    pub backoff_cycles: u64,
    /// The full supervision record (absent for panicked cells).
    pub supervision: Option<SupervisionReport>,
}

impl RecoveryRun {
    /// The cell's identity: `workload/scenario/config`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.workload, self.scenario, self.config)
    }

    /// Encodes the cell as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::s(&*self.workload)),
            ("scenario", Json::s(&*self.scenario)),
            ("config", Json::s(&*self.config)),
            ("outcome", Json::s(&*self.outcome)),
            ("attempts", Json::U(self.attempts as u64)),
            ("recovered", Json::Bool(self.recovered)),
            ("checkpoints_ok", Json::Bool(self.checkpoints_ok)),
            ("audits_clean", Json::Bool(self.audits_clean)),
            ("injected", Json::U(self.injected)),
            ("run_cycles", Json::U(self.run_cycles)),
            ("backoff_cycles", Json::U(self.backoff_cycles)),
            (
                "supervision",
                match &self.supervision {
                    Some(rep) => rep.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The full matrix report: every cell plus the contract violations.
#[derive(Debug, Clone)]
pub struct RecoveryMatrixReport {
    /// Workload scale the matrix ran at.
    pub scale: u32,
    /// All cells, workload-major, scenario-then-configuration order.
    pub runs: Vec<RecoveryRun>,
    /// Recovery-contract violations (empty = the gate passes).
    pub violations: Vec<String>,
}

impl RecoveryMatrixReport {
    /// Whether the recovery gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Encodes the report, schema string first.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::s(SCHEMA)),
            ("scale", Json::U(self.scale as u64)),
            ("passed", Json::Bool(self.passed())),
            ("violations", Json::A(self.violations.iter().map(|v| Json::s(&**v)).collect())),
            ("runs", Json::A(self.runs.iter().map(RecoveryRun::to_json).collect())),
        ])
    }

    /// Renders the report as pretty-printed JSON (the
    /// `RECOVERYMATRIX_rc.json` format).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// A short human summary: cell counts by verdict, then violations.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let count = |tag: &str| self.runs.iter().filter(|r| r.outcome == tag).count();
        let _ = writeln!(
            out,
            "recovery-matrix: {} cells — {} completed ({} via recovery), {} exhausted, {} other",
            self.runs.len(),
            count("completed"),
            self.runs.iter().filter(|r| r.recovered).count(),
            count("policy-exhausted"),
            self.runs.len() - count("completed") - count("policy-exhausted"),
        );
        let retries: u64 = self.runs.iter().map(|r| r.attempts.saturating_sub(1) as u64).sum();
        let _ = writeln!(out, "re-executions: {retries}");
        if self.passed() {
            let _ = writeln!(out, "recovery gate: PASS");
        } else {
            let _ = writeln!(out, "recovery gate: FAIL ({} violations)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        out
    }
}

/// Runs the full matrix over all eight workloads.
pub fn collect(scale: Scale) -> RecoveryMatrixReport {
    collect_for(scale, &rc_workloads::all())
}

/// Runs the matrix over the given workloads: every [`scenarios`] column
/// under every [`configs`] configuration, supervised.
pub fn collect_for(scale: Scale, workloads: &[Workload]) -> RecoveryMatrixReport {
    let mut runs = Vec::new();
    let mut violations = Vec::new();
    for w in workloads {
        let c = prepare_workload(w, scale);
        for scenario in scenarios() {
            for (name, cfg) in configs() {
                let cfg =
                    cfg.with_faults(scenario.plan.clone()).with_page_budget(scenario.page_budget);
                let key = format!("{}/{}/{name}", w.name, scenario.name);
                // `supervise_compiled` runs the interpreter on a scoped
                // thread that re-raises panics here, so the catch
                // observes them all.
                let cell = match catch_unwind(AssertUnwindSafe(|| {
                    supervise_compiled(&c, &cfg, &scenario.policy)
                })) {
                    Ok(rep) => cell_of(w.name, scenario.name, name, rep),
                    Err(payload) => {
                        violations.push(format!("{key}: panicked: {}", panic_msg(&payload)));
                        panicked_cell(w.name, scenario.name, name)
                    }
                };
                gate_cell(&key, &scenario, &cell, &mut violations);
                runs.push(cell);
            }
        }
    }
    RecoveryMatrixReport { scale: scale.0, runs, violations }
}

/// Applies the recovery contract to one cell.
fn gate_cell(
    key: &str,
    scenario: &RecoveryScenario,
    cell: &RecoveryRun,
    violations: &mut Vec<String>,
) {
    if cell.outcome == "panicked" {
        return; // already a violation
    }
    if !cell.checkpoints_ok {
        violations.push(format!("{key}: a checkpoint failed to restore"));
    }
    if !cell.audits_clean {
        violations.push(format!("{key}: an attempt left the heap audit-unclean"));
    }
    match scenario.expect {
        Expect::Complete => {
            if cell.outcome != "completed" {
                violations.push(format!("{key}: expected completion, got {}", cell.outcome));
            }
        }
        Expect::Exhaust => {
            // Orderly exhaustion when the fault fires; cells the schedule
            // never reaches complete cleanly instead.
            let ok = cell.outcome == "policy-exhausted"
                || (cell.outcome == "completed" && cell.injected == 0);
            if !ok {
                violations.push(format!(
                    "{key}: expected orderly exhaustion, got {} ({} injections)",
                    cell.outcome, cell.injected
                ));
            }
        }
    }
}

fn cell_of(workload: &str, scenario: &str, config: &str, rep: SupervisionReport) -> RecoveryRun {
    RecoveryRun {
        workload: workload.to_string(),
        scenario: scenario.to_string(),
        config: config.to_string(),
        outcome: rep.outcome.as_str().to_string(),
        attempts: rep.attempts.len() as u32,
        recovered: rep.recovered(),
        checkpoints_ok: rep.checkpoints_ok(),
        audits_clean: rep.attempts.iter().all(|a| a.audit_clean),
        injected: rep.attempts.iter().map(|a| a.injected).sum(),
        run_cycles: rep.run_cycles,
        backoff_cycles: rep.backoff_cycles,
        supervision: Some(rep),
    }
}

/// A placeholder cell for a run that panicked (already a violation; the
/// zeros keep the report shape uniform).
fn panicked_cell(workload: &str, scenario: &str, config: &str) -> RecoveryRun {
    RecoveryRun {
        workload: workload.to_string(),
        scenario: scenario.to_string(),
        config: config.to_string(),
        outcome: "panicked".to_string(),
        attempts: 0,
        recovered: false,
        checkpoints_ok: false,
        audits_clean: false,
        injected: 0,
        run_cycles: 0,
        backoff_cycles: 0,
        supervision: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> RecoveryMatrixReport {
        collect_for(Scale::TINY, &[rc_workloads::by_name("tile").unwrap()])
    }

    #[test]
    fn matrix_covers_scenarios_by_configs_and_passes() {
        let rep = tiny_matrix();
        assert_eq!(rep.runs.len(), scenarios().len() * configs().len());
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        // The clean column is the restore-fixpoint acceptance sweep:
        // every config completes with a restorable exit checkpoint.
        for r in rep.runs.iter().filter(|r| r.scenario == "clean") {
            assert_eq!(r.outcome, "completed", "{}", r.key());
            assert_eq!(r.attempts, 1, "{}", r.key());
            assert!(r.checkpoints_ok, "{}", r.key());
        }
        // Recovery genuinely happened somewhere (a retry completed).
        assert!(rep.runs.iter().any(|r| r.recovered), "no cell recovered");
        // And orderly exhaustion happened somewhere too, with restorable
        // trap checkpoints all the way down.
        assert!(rep
            .runs
            .iter()
            .any(|r| r.outcome == "policy-exhausted" && r.checkpoints_ok && r.attempts > 1));
        // The budget squeeze recovers by escalation on every config.
        for r in rep.runs.iter().filter(|r| r.scenario == "budget-squeeze") {
            assert_eq!(r.outcome, "completed", "{}", r.key());
        }
        let summary = rep.summary();
        assert!(summary.contains("PASS"), "{summary}");
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
}
