//! The fault-injection torture matrix.
//!
//! [`collect`] sweeps the Figure 7 workloads under every allocator
//! configuration crossed with a set of deterministic [`FaultScenario`]s —
//! scheduled fault injections on each runtime plane plus organic
//! page-budget squeezes — always under
//! [`OnFault::TrapAndUnwind`](rc_lang::OnFault) recovery. Each run is
//! checked for the robustness contract:
//!
//! 1. **no panics** — every failure surfaces as a typed
//!    [`rc_lang::Outcome::Trapped`]/[`rc_lang::Outcome::Aborted`], never
//!    an unwind out of the interpreter;
//! 2. **post-fault audit cleanliness** — after the trap handler tears the
//!    region stack down, `Heap::audit()` must pass;
//! 3. **cross-config agreement** — for allocation-plane scenarios, all
//!    five allocators must agree on *where* the injected OOM lands (the
//!    same allocation ordinal), since the Alloc plane counts allocations
//!    backend-independently.
//!
//! The report is a [`Matrix`], so violations fail the gate without
//! hiding the rest of the matrix, and it is byte-identical across runs.
//! The schema string [`SCHEMA`] names the layout; see
//! `docs/ROBUSTNESS.md`.

use rc_lang::interp::{run_audited, RunResult};
use rc_lang::RunConfig;
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::{FaultMode, FaultPlan, Json};

use crate::matrix::Matrix;
use crate::report::Row;

/// Schema identifier embedded in every report; bumped on layout change
/// (registered in [`crate::schema`]).
pub const SCHEMA: &str = crate::schema::Schema::FaultMatrix.id();

/// One column of the torture matrix: a fault plan and/or a page budget.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Scenario name (stable; part of a run's identity key).
    pub name: &'static str,
    /// The injection plan (empty for organic page-budget scenarios).
    pub plan: FaultPlan,
    /// Heap page budget (0 = unlimited).
    pub page_budget: usize,
}

impl FaultScenario {
    /// Whether this scenario arms the allocation plane (and therefore
    /// participates in the cross-config agreement check).
    pub fn gates_alloc_agreement(&self) -> bool {
        self.plan.alloc.is_some()
    }
}

/// The standard scenario sweep: one scheduled, sticky injection per
/// plane (early and late on the allocation plane) plus two organic
/// page-budget squeezes.
pub fn scenarios() -> Vec<FaultScenario> {
    let inject =
        |name, plan: FaultPlan| FaultScenario { name, plan: plan.sticky(), page_budget: 0 };
    vec![
        inject("alloc-early", FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![5]))),
        inject("alloc-late", FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![150]))),
        inject("page-squeeze", FaultPlan::new().fail_page_acquire(FaultMode::Schedule(vec![3]))),
        inject("rc-saturate", FaultPlan::new().saturate_rc(FaultMode::Schedule(vec![40]))),
        inject("check-chaos", FaultPlan::new().fail_checks(FaultMode::Schedule(vec![10]))),
        FaultScenario { name: "budget-4", plan: FaultPlan::new(), page_budget: 4 },
        FaultScenario { name: "budget-64", plan: FaultPlan::new(), page_budget: 64 },
    ]
}

/// One workload × scenario × configuration cell.
#[derive(Debug, Clone, Default)]
pub struct FaultRun {
    /// Workload name.
    pub workload: String,
    /// Scenario name.
    pub scenario: String,
    /// Configuration display name (Figure 7 column).
    pub config: String,
    /// How the run ended: an [`rc_lang::Outcome::tag`] or `panicked`.
    pub outcome: String,
    /// The typed error's stable kind tag, for trapped/aborted runs.
    pub error_kind: Option<String>,
    /// Total injections that fired.
    pub injected: u64,
    /// Ordinal of the first injection on its plane (0 = none fired).
    pub first_op: u64,
    /// Virtual time of the first injection (0 = none fired).
    pub first_at: u64,
    /// Whether the end-of-run heap audit passed.
    pub audit_clean: bool,
    /// Total virtual cycles.
    pub cycles: u64,
    /// Interpreter steps executed.
    pub steps: u64,
}

impl FaultRun {
    /// The cell's identity: `workload/scenario/config`.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.workload, self.scenario, self.config)
    }
}

impl Row for FaultRun {
    fn fields(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("workload", Json::s(&*self.workload)),
            ("scenario", Json::s(&*self.scenario)),
            ("config", Json::s(&*self.config)),
            ("outcome", Json::s(&*self.outcome)),
            ("error_kind", self.error_kind.as_deref().map_or(Json::Null, Json::s)),
            ("injected", Json::U(self.injected)),
            ("first_op", Json::U(self.first_op)),
            ("first_at", Json::U(self.first_at)),
            ("audit_clean", Json::Bool(self.audit_clean)),
            ("cycles", Json::U(self.cycles)),
            ("steps", Json::U(self.steps)),
        ]
    }
}

impl Matrix<FaultRun> {
    /// A short human summary: cell counts by outcome, then the gate.
    pub fn summary(&self) -> String {
        let count = |tag: &str| self.runs.iter().filter(|r| r.outcome == tag).count();
        let (exited, trapped) = (count("exit"), count("trapped"));
        let injected: u64 = self.runs.iter().map(|r| r.injected).sum();
        format!(
            "fault-matrix: {} cells — {exited} exited, {trapped} trapped, {} other\n\
             injections fired: {injected}\n{}",
            self.runs.len(),
            self.runs.len() - exited - trapped,
            self.verdict("robustness"),
        )
    }
}

/// Runs the full matrix over all eight workloads.
pub fn collect(scale: Scale) -> Matrix<FaultRun> {
    collect_for(scale, &rc_workloads::all())
}

/// Runs the matrix over the given workloads: every [`scenarios`] column
/// under every Figure 7 configuration, trap-and-unwind recovery on.
pub fn collect_for(scale: Scale, workloads: &[Workload]) -> Matrix<FaultRun> {
    let mut m = Matrix::new(SCHEMA, scale);
    for w in workloads {
        let c = prepare_workload(w, scale);
        for scenario in scenarios() {
            for (name, cfg) in RunConfig::figure7() {
                let cfg = cfg
                    .trapping()
                    .with_faults(scenario.plan.clone())
                    .with_page_budget(scenario.page_budget);
                let id = FaultRun {
                    workload: w.name.to_string(),
                    scenario: scenario.name.to_string(),
                    config: name.to_string(),
                    ..FaultRun::default()
                };
                let key = id.key();
                m.cell(
                    &key,
                    |v| {
                        let cell = cell_of(id.clone(), &run_audited(&c, &cfg));
                        gate_cell(&key, &cell, v);
                        cell
                    },
                    || FaultRun { outcome: "panicked".to_string(), ..id.clone() },
                );
            }
        }
    }
    check_alloc_agreement(&m.runs, &mut m.violations);
    m
}

/// Applies the per-cell robustness contract: a clean post-fault audit,
/// and no abort under trap-and-unwind recovery.
fn gate_cell(key: &str, cell: &FaultRun, violations: &mut Vec<String>) {
    if !cell.audit_clean {
        violations.push(format!("{key}: post-fault heap audit failed"));
    }
    if cell.outcome == "aborted" {
        violations.push(format!(
            "{key}: aborted ({}) despite trap-and-unwind recovery",
            cell.error_kind.as_deref().unwrap_or("?"),
        ));
    }
}

/// The cross-config agreement check: within one workload × alloc-plane
/// scenario, every configuration must land the injected OOM at the same
/// allocation ordinal (or agree that the schedule never fires).
fn check_alloc_agreement(runs: &[FaultRun], violations: &mut Vec<String>) {
    let alloc_scenarios: Vec<FaultScenario> =
        scenarios().into_iter().filter(FaultScenario::gates_alloc_agreement).collect();
    let mut seen: Vec<(String, String)> = Vec::new();
    for r in runs {
        if !alloc_scenarios.iter().any(|s| s.name == r.scenario) {
            continue;
        }
        let group = (r.workload.clone(), r.scenario.clone());
        if seen.contains(&group) {
            continue;
        }
        seen.push(group);
        let cells: Vec<&FaultRun> =
            runs.iter().filter(|c| c.workload == r.workload && c.scenario == r.scenario).collect();
        let landing = |c: &FaultRun| (c.outcome.clone(), c.first_op);
        let first = landing(cells[0]);
        for c in &cells[1..] {
            if landing(c) != first {
                violations.push(format!(
                    "{}/{}: configs disagree on OOM landing: {}={:?} vs {}={:?}",
                    r.workload,
                    r.scenario,
                    cells[0].config,
                    first,
                    c.config,
                    landing(c),
                ));
                break;
            }
        }
    }
}

/// The cell `id` names, filled in from its run.
fn cell_of(id: FaultRun, r: &RunResult) -> FaultRun {
    let first = r.faults.as_ref().and_then(|f| f.first());
    FaultRun {
        outcome: r.outcome.tag().to_string(),
        error_kind: r.outcome.error().map(|e| e.kind_name().to_string()),
        injected: r.faults.as_ref().map_or(0, |f| f.total_injected() as u64),
        first_op: first.map_or(0, |f| f.op),
        first_at: first.map_or(0, |f| f.at),
        audit_clean: matches!(r.audit, Some(Ok(()))),
        cycles: r.cycles,
        steps: r.steps,
        ..id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> Matrix<FaultRun> {
        collect_for(Scale::TINY, &[rc_workloads::by_name("tile").unwrap()])
    }

    #[test]
    fn matrix_covers_scenarios_by_configs_and_passes() {
        let rep = tiny_matrix();
        assert_eq!(rep.runs.len(), scenarios().len() * 5);
        assert!(rep.passed(), "violations: {:?}", rep.violations);
        // Injection scenarios actually fire somewhere in the matrix.
        assert!(rep.runs.iter().any(|r| r.outcome == "trapped" && r.injected > 0));
        // Organic budget squeezes trap too, with no arms installed.
        assert!(rep
            .runs
            .iter()
            .any(|r| r.scenario == "budget-4" && r.outcome == "trapped" && r.injected == 0));
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
