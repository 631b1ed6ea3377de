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
//! The report is a [`Matrix`], so violations fail the gate without
//! hiding the rest, and `tools/pins.sh` pins it byte for byte. The
//! schema string [`SCHEMA`] names the layout; see `docs/ROBUSTNESS.md`.

use rc_lang::{supervise_compiled, CheckMode, RecoveryPolicy, RunConfig, SupervisionReport};
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::{FaultMode, FaultPlan, Json};

use crate::matrix::Matrix;
use crate::report::Row;

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
#[derive(Debug, Clone, Default)]
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
}

impl Row for RecoveryRun {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
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
                self.supervision.as_ref().map_or(Json::Null, SupervisionReport::to_json),
            ),
        ]
    }
}

impl Matrix<RecoveryRun> {
    /// A short human summary: cell counts by verdict, then the gate.
    pub fn summary(&self) -> String {
        let count = |tag: &str| self.runs.iter().filter(|r| r.outcome == tag).count();
        let (completed, exhausted) = (count("completed"), count("policy-exhausted"));
        let recovered = self.runs.iter().filter(|r| r.recovered).count();
        let retries: u64 = self.runs.iter().map(|r| r.attempts.saturating_sub(1) as u64).sum();
        format!(
            "recovery-matrix: {} cells — {completed} completed ({recovered} via recovery), \
             {exhausted} exhausted, {} other\nre-executions: {retries}\n{}",
            self.runs.len(),
            self.runs.len() - completed - exhausted,
            self.verdict("recovery"),
        )
    }
}

/// Runs the full matrix over all eight workloads.
pub fn collect(scale: Scale) -> Matrix<RecoveryRun> {
    collect_for(scale, &rc_workloads::all())
}

/// Runs the matrix over the given workloads: every [`scenarios`] column
/// under every [`configs`] configuration, supervised.
pub fn collect_for(scale: Scale, workloads: &[Workload]) -> Matrix<RecoveryRun> {
    let mut m = Matrix::new(SCHEMA, scale);
    for w in workloads {
        let c = prepare_workload(w, scale);
        for scenario in scenarios() {
            for (name, cfg) in configs() {
                let cfg =
                    cfg.with_faults(scenario.plan.clone()).with_page_budget(scenario.page_budget);
                let id = RecoveryRun {
                    workload: w.name.to_string(),
                    scenario: scenario.name.to_string(),
                    config: name.to_string(),
                    ..RecoveryRun::default()
                };
                let key = id.key();
                m.cell(
                    &key,
                    |v| {
                        let cell =
                            cell_of(id.clone(), supervise_compiled(&c, &cfg, &scenario.policy));
                        gate_cell(&key, &scenario, &cell, v);
                        cell
                    },
                    || RecoveryRun { outcome: "panicked".to_string(), ..id.clone() },
                );
            }
        }
    }
    m
}

/// Applies the recovery contract to one cell.
fn gate_cell(
    key: &str,
    scenario: &RecoveryScenario,
    cell: &RecoveryRun,
    violations: &mut Vec<String>,
) {
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

/// The cell `id` names, filled in from its supervision record.
fn cell_of(id: RecoveryRun, rep: SupervisionReport) -> RecoveryRun {
    RecoveryRun {
        outcome: rep.outcome.as_str().to_string(),
        attempts: rep.attempts.len() as u32,
        recovered: rep.recovered(),
        checkpoints_ok: rep.checkpoints_ok(),
        audits_clean: rep.attempts.iter().all(|a| a.audit_clean),
        injected: rep.attempts.iter().map(|a| a.injected).sum(),
        run_cycles: rep.run_cycles,
        backoff_cycles: rep.backoff_cycles,
        supervision: Some(rep),
        ..id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> Matrix<RecoveryRun> {
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
