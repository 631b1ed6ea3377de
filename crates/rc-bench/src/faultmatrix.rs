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
//!    [`Outcome::Trapped`]/[`Outcome::Aborted`], never an unwind out of
//!    the interpreter;
//! 2. **post-fault audit cleanliness** — after the trap handler tears the
//!    region stack down, `Heap::audit()` must pass;
//! 3. **cross-config agreement** — for allocation-plane scenarios, all
//!    five allocators must agree on *where* the injected OOM lands (the
//!    same allocation ordinal), since the Alloc plane counts allocations
//!    backend-independently.
//!
//! Violations are collected into the report (and fail the gate) rather
//! than thrown, so one bad cell never hides the rest of the matrix.
//! Every number is virtual-clock, so two reports from the same tree are
//! byte-identical — same property the trajectory gate relies on. The
//! schema string [`SCHEMA`] names the layout; see `docs/ROBUSTNESS.md`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rc_lang::interp::{run_audited, Outcome, RunResult};
use rc_lang::RunConfig;
use rc_workloads::driver::prepare_workload;
use rc_workloads::{Scale, Workload};
use region_rt::{FaultMode, FaultPlan, Json};

use crate::panic_msg;

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
    let inject = |name, plan: FaultPlan| FaultScenario { name, plan: plan.sticky(), page_budget: 0 };
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
#[derive(Debug, Clone)]
pub struct FaultRun {
    /// Workload name.
    pub workload: String,
    /// Scenario name.
    pub scenario: String,
    /// Configuration display name (Figure 7 column).
    pub config: String,
    /// How the run ended: `exit`, `trapped`, `aborted`, `assert-failed`,
    /// `step-limit`, `stack-overflow` or `panicked`.
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

    /// Encodes the cell as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::s(&*self.workload)),
            ("scenario", Json::s(&*self.scenario)),
            ("config", Json::s(&*self.config)),
            ("outcome", Json::s(&*self.outcome)),
            (
                "error_kind",
                match &self.error_kind {
                    Some(k) => Json::s(&**k),
                    None => Json::Null,
                },
            ),
            ("injected", Json::U(self.injected)),
            ("first_op", Json::U(self.first_op)),
            ("first_at", Json::U(self.first_at)),
            ("audit_clean", Json::Bool(self.audit_clean)),
            ("cycles", Json::U(self.cycles)),
            ("steps", Json::U(self.steps)),
        ])
    }
}

/// The full matrix report: every cell plus the contract violations.
#[derive(Debug, Clone)]
pub struct FaultMatrixReport {
    /// Workload scale the matrix ran at.
    pub scale: u32,
    /// All cells, workload-major, scenario-then-configuration order.
    pub runs: Vec<FaultRun>,
    /// Robustness-contract violations (empty = the gate passes).
    pub violations: Vec<String>,
}

impl FaultMatrixReport {
    /// Whether the robustness gate passes.
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
            ("runs", Json::A(self.runs.iter().map(FaultRun::to_json).collect())),
        ])
    }

    /// Renders the report as pretty-printed JSON (the
    /// `FAULTMATRIX_rc.json` format).
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }

    /// A short human summary: cell counts by outcome, then violations.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let count = |tag: &str| self.runs.iter().filter(|r| r.outcome == tag).count();
        let _ = writeln!(
            out,
            "fault-matrix: {} cells — {} exited, {} trapped, {} other",
            self.runs.len(),
            count("exit"),
            count("trapped"),
            self.runs.len() - count("exit") - count("trapped"),
        );
        let injected: u64 = self.runs.iter().map(|r| r.injected).sum();
        let _ = writeln!(out, "injections fired: {injected}");
        if self.passed() {
            let _ = writeln!(out, "robustness gate: PASS");
        } else {
            let _ = writeln!(out, "robustness gate: FAIL ({} violations)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        out
    }
}

/// Runs the full matrix over all eight workloads.
pub fn collect(scale: Scale) -> FaultMatrixReport {
    collect_for(scale, &rc_workloads::all())
}

/// Runs the matrix over the given workloads: every [`scenarios`] column
/// under every Figure 7 configuration, trap-and-unwind recovery on.
pub fn collect_for(scale: Scale, workloads: &[Workload]) -> FaultMatrixReport {
    let mut runs = Vec::new();
    let mut violations = Vec::new();
    for w in workloads {
        let c = prepare_workload(w, scale);
        for scenario in scenarios() {
            for (name, cfg) in RunConfig::figure7() {
                let cfg = cfg
                    .trapping()
                    .with_faults(scenario.plan.clone())
                    .with_page_budget(scenario.page_budget);
                let key = format!("{}/{}/{name}", w.name, scenario.name);
                // `run_audited` re-raises interpreter-thread panics on
                // this thread, so a catch here observes them all.
                let cell = match catch_unwind(AssertUnwindSafe(|| run_audited(&c, &cfg))) {
                    Ok(r) => cell_of(w.name, scenario.name, name, &r),
                    Err(payload) => {
                        violations.push(format!("{key}: panicked: {}", panic_msg(&payload)));
                        panicked_cell(w.name, scenario.name, name)
                    }
                };
                if cell.outcome != "panicked" && !cell.audit_clean {
                    violations.push(format!("{key}: post-fault heap audit failed"));
                }
                if cell.outcome == "aborted" {
                    violations.push(format!(
                        "{key}: aborted ({}) despite trap-and-unwind recovery",
                        cell.error_kind.as_deref().unwrap_or("?"),
                    ));
                }
                runs.push(cell);
            }
        }
    }
    check_alloc_agreement(&runs, &mut violations);
    FaultMatrixReport { scale: scale.0, runs, violations }
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
        let cells: Vec<&FaultRun> = runs
            .iter()
            .filter(|c| c.workload == r.workload && c.scenario == r.scenario)
            .collect();
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

fn cell_of(workload: &str, scenario: &str, config: &str, r: &RunResult) -> FaultRun {
    let (outcome, error_kind) = match &r.outcome {
        Outcome::Exit(_) => ("exit", None),
        Outcome::Trapped(e) => ("trapped", Some(e.kind_name().to_string())),
        Outcome::Aborted(e) => ("aborted", Some(e.kind_name().to_string())),
        Outcome::AssertFailed => ("assert-failed", None),
        Outcome::StepLimit => ("step-limit", None),
        Outcome::StackOverflow => ("stack-overflow", None),
    };
    let first = r.faults.as_ref().and_then(|f| f.first());
    FaultRun {
        workload: workload.to_string(),
        scenario: scenario.to_string(),
        config: config.to_string(),
        outcome: outcome.to_string(),
        error_kind,
        injected: r.faults.as_ref().map_or(0, |f| f.total_injected() as u64),
        first_op: first.map_or(0, |f| f.op),
        first_at: first.map_or(0, |f| f.at),
        audit_clean: matches!(r.audit, Some(Ok(()))),
        cycles: r.cycles,
        steps: r.steps,
    }
}

/// A placeholder cell for a run that panicked (already a violation; the
/// zeros keep the report shape uniform).
fn panicked_cell(workload: &str, scenario: &str, config: &str) -> FaultRun {
    FaultRun {
        workload: workload.to_string(),
        scenario: scenario.to_string(),
        config: config.to_string(),
        outcome: "panicked".to_string(),
        error_kind: None,
        injected: 0,
        first_op: 0,
        first_at: 0,
        audit_clean: false,
        cycles: 0,
        steps: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_matrix() -> FaultMatrixReport {
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
