//! The differential oracle: one program, five allocator configurations,
//! eight families of assertions.
//!
//! 1. **Conformance** — the observable outcome (exit code / trap kind /
//!    assertion failure) is identical under `lea`, `GC`, `nq`, `qs` and
//!    `inf`. Outcomes are compared by *kind key* ([`Outcome::key`]), not by
//!    full payload: runtime-error payloads embed heap addresses, which
//!    legitimately differ between allocators.
//! 2. **Inference soundness** — rerunning the program with per-site check
//!    counting on ([`rc_lang::RunConfig::counting_checks`]), every check
//!    site the rlang analysis eliminated must have a dynamic fire count
//!    of zero. A fired-but-eliminated site is a soundness bug in §5's
//!    constraint inference.
//! 3. **Heap hygiene** — every configuration's post-run audit (reference
//!    counts reconciled against a full heap scan) must pass.
//! 4. **Replay determinism** — rerunning the reference configuration
//!    yields byte-identical statistics and the same outcome; generated
//!    source is a pure function of the seed (checked by the driver).
//! 5. **Span well-formedness** — the replay runs record region lifecycle
//!    spans ([`rc_lang::RunConfig::with_spans`]); the resulting span tree
//!    must verify against the heap's own region table
//!    ([`region_rt::SpanTree::verification`]) and be identical between
//!    the two replays.
//! 6. **Restore fixpoint** — rerunning the baseline (`lea`) configuration
//!    with post-mortem snapshots on, every captured snapshot must pass
//!    [`region_rt::Heap::restore`]: the restored heap verifies, audits,
//!    and re-snapshots byte-identically. A checkpoint that cannot be
//!    turned back into a heap is forensics, not recovery.
//! 7. **Parallel equivalence** — for programs containing `spawn`, the
//!    baseline configuration is rerun under the seeded deterministic
//!    scheduler ([`rc_lang::RunConfig::det_sched`]); its outcome key must
//!    equal the sequential baseline's and its merged post-join heap must
//!    audit clean. Region ownership transfer makes task interleaving
//!    unobservable, so any disagreement is a scheduler or shard-merge
//!    bug.
//! 8. **Task-report well-formedness** — the same deterministic-scheduler
//!    run must hand back per-task reports that are an exact decomposition
//!    of the merged run: root first, every scheduler log balanced
//!    ([`region_rt::SchedLog::balanced`]), per-task cycles / steps /
//!    [`region_rt::Stats`] folding back to the merged totals, and the
//!    work/span analyzer ([`region_rt::critpath_analyze`]) accepting the
//!    reports with `span ≤ work == merged cycles`. A report set that does
//!    not re-compose is attribution the observability layer cannot trust.

use rc_lang::{CheckMode, Outcome, RunConfig};
use rlang::SiteId;

/// A violated oracle assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two configurations disagreed on the observable outcome.
    Divergence {
        /// Name of the disagreeing configuration.
        config: &'static str,
        /// The baseline configuration's outcome key.
        baseline: String,
        /// The disagreeing configuration's outcome key.
        got: String,
    },
    /// A configuration's post-run heap audit failed.
    AuditFailure {
        /// Name of the configuration whose audit failed.
        config: &'static str,
        /// Audit error rendered for humans.
        detail: String,
    },
    /// A check site the analysis eliminated fired dynamically.
    UnsoundElimination {
        /// The check site (assignment site id).
        site: u32,
        /// How many times its predicate failed at runtime.
        fails: u64,
    },
    /// A rerun of the same program under the same configuration differed.
    NonDeterministic {
        /// What differed.
        detail: String,
    },
    /// The replay run's span tree failed structural verification against
    /// the heap's own region table.
    MalformedSpans {
        /// The first invariant the verifier found broken.
        detail: String,
    },
    /// A snapshot captured by the baseline run failed to restore as an
    /// exact fixpoint ([`region_rt::Heap::restore`]).
    RestoreDivergence {
        /// The snapshot's capture reason (`exit`, `gc` or `trap`).
        reason: String,
        /// The restore error, rendered for humans.
        detail: String,
    },
    /// A `spawn` program's outcome under the deterministic scheduler
    /// disagreed with the sequential baseline.
    ParallelDivergence {
        /// The sequential baseline's outcome key.
        baseline: String,
        /// The deterministic-scheduler outcome key.
        got: String,
    },
    /// The deterministic-scheduler run's per-task reports do not
    /// re-compose into the merged run (unbalanced scheduler log, telemetry
    /// that does not fold back, or a report set the critical-path analyzer
    /// rejects).
    TaskReportDivergence {
        /// The first broken invariant, rendered for humans.
        detail: String,
    },
}

impl Violation {
    /// A short machine-friendly tag (used in regression file names).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Divergence { .. } => "divergence",
            Violation::AuditFailure { .. } => "audit",
            Violation::UnsoundElimination { .. } => "unsound-elim",
            Violation::NonDeterministic { .. } => "nondet",
            Violation::MalformedSpans { .. } => "malformed_spans",
            Violation::RestoreDivergence { .. } => "restore_divergence",
            Violation::ParallelDivergence { .. } => "parallel_divergence",
            Violation::TaskReportDivergence { .. } => "task_report_divergence",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Divergence { config, baseline, got } => {
                write!(f, "divergence: {config} saw {got}, baseline saw {baseline}")
            }
            Violation::AuditFailure { config, detail } => {
                write!(f, "audit failure under {config}: {detail}")
            }
            Violation::UnsoundElimination { site, fails } => {
                write!(f, "eliminated check at site {site} fired {fails} time(s)")
            }
            Violation::NonDeterministic { detail } => {
                write!(f, "non-deterministic replay: {detail}")
            }
            Violation::MalformedSpans { detail } => {
                write!(f, "malformed span tree: {detail}")
            }
            Violation::RestoreDivergence { reason, detail } => {
                write!(f, "snapshot ({reason}) is not restorable: {detail}")
            }
            Violation::ParallelDivergence { baseline, got } => {
                write!(
                    f,
                    "parallel divergence: deterministic scheduler saw {got}, \
                     sequential baseline saw {baseline}"
                )
            }
            Violation::TaskReportDivergence { detail } => {
                write!(f, "task report divergence: {detail}")
            }
        }
    }
}

/// The five differential configurations, in comparison order. The first
/// entry (`lea`) is the baseline.
pub fn five_configs() -> Vec<(&'static str, RunConfig)> {
    vec![
        ("lea", RunConfig::lea()),
        ("gc", RunConfig::gc()),
        ("nq", RunConfig::rc(CheckMode::Nq)),
        ("qs", RunConfig::rc(CheckMode::Qs)),
        ("inf", RunConfig::rc_inf()),
    ]
}

/// The fixed baton seed assertion 7 hands the deterministic scheduler.
pub const PAR_SEED: u64 = 0x5eed_ba70_0007;

/// Resolves an oracle configuration name (as carried by
/// [`Violation::Divergence`]/[`Violation::AuditFailure`]) back to its
/// [`RunConfig`] — the counting rerun (`nq+count`) maps to plain `nq`
/// and the parallel rerun (`lea+det`) to plain `lea`, since neither the
/// tally nor the task schedule is part of the heap state a snapshot
/// shows.
pub fn config_by_name(name: &str) -> Option<RunConfig> {
    let name = name.strip_suffix("+count").unwrap_or(name);
    let name = name.strip_suffix("+det").unwrap_or(name);
    five_configs().into_iter().find(|(n, _)| *n == name).map(|(_, c)| c)
}

/// Whether the checked module contains a `spawn` anywhere (assertion 7's
/// trigger).
fn has_spawn(module: &rc_lang::hir::Module) -> bool {
    fn in_stmts(ss: &[rc_lang::hir::HStmt]) -> bool {
        use rc_lang::hir::HStmt;
        ss.iter().any(|s| match s {
            HStmt::Spawn { .. } => true,
            HStmt::If(_, t, e) => in_stmts(t) || in_stmts(e),
            HStmt::While(_, b) => in_stmts(b),
            HStmt::Expr(_) | HStmt::Return(_) | HStmt::Join => false,
        })
    }
    module.funcs.iter().any(|f| in_stmts(&f.body))
}

/// Assertion 8's predicate: the first way `r.task_reports` fails to be an
/// exact decomposition of the merged run, or `None` when the reports are
/// well-formed. Reports only exist once spawned children have been
/// joined, so an aborted run with none recorded is not a defect — but a
/// clean exit that spawned and still has none is.
fn task_report_defect(r: &rc_lang::RunResult) -> Option<String> {
    let reports = &r.task_reports;
    if reports.is_empty() {
        if matches!(r.outcome, Outcome::Exit(_)) && r.stats.sched_spawns > 0 {
            return Some(format!(
                "clean exit spawned {} task(s) but produced no task reports",
                r.stats.sched_spawns
            ));
        }
        return None;
    }
    if !reports[0].is_root() {
        return Some(format!("first report is task {}, not the root", reports[0].id.0));
    }
    for t in reports {
        if !t.sched.balanced() {
            return Some(format!("task {} has an unbalanced scheduler log", t.id.0));
        }
    }
    let cycle_sum: u64 = reports.iter().map(|t| t.cycles).sum();
    if cycle_sum != r.cycles {
        return Some(format!("per-task cycles sum to {cycle_sum}, merged clock read {}", r.cycles));
    }
    let step_sum: u64 = reports.iter().map(|t| t.steps).sum();
    if step_sum != r.steps {
        return Some(format!("per-task steps sum to {step_sum}, merged run counted {}", r.steps));
    }
    let folded = reports[1..].iter().fold(reports[0].stats.clone(), |acc, t| acc.merge(&t.stats));
    if folded.to_json().render() != r.stats.to_json().render() {
        return Some("per-task stats do not fold to the merged stats".to_string());
    }
    match region_rt::critpath_analyze(reports) {
        Ok(cp) => {
            if cp.work != r.cycles || cp.span > cp.work {
                return Some(format!(
                    "critical path broke its identities: work {} span {} cycles {}",
                    cp.work, cp.span, r.cycles
                ));
            }
        }
        Err(e) => return Some(format!("critical-path analyzer rejected the reports: {e}")),
    }
    None
}

/// Everything the oracle measured for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// The baseline (`lea`) outcome key — what every config agreed on
    /// when `violations` is empty.
    pub outcome_key: String,
    /// Violated assertions, in detection order.
    pub violations: Vec<Violation>,
    /// Interpreter steps summed over every run (budget accounting).
    pub steps: u64,
    /// How many check sites the analysis eliminated.
    pub eliminated_sites: usize,
    /// Annotation-check predicates evaluated in the counting rerun.
    pub checks_counted: u64,
    /// Annotation-check predicates that failed in the counting rerun
    /// (across *all* sites, eliminated or not).
    pub checks_fired: u64,
}

impl CaseReport {
    /// Whether every oracle assertion held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the full oracle against one RC source text.
///
/// `step_budget` (0 = unlimited) bounds each individual run.
///
/// # Errors
///
/// Returns the compile error when the source does not compile — for
/// generated programs that is itself a harness bug, and callers treat it
/// as fatal rather than as a violation.
pub fn check_source(src: &str, step_budget: u64) -> Result<CaseReport, rc_lang::CompileError> {
    let compiled = rc_lang::prepare(src)?;
    let mut violations = Vec::new();
    let mut steps = 0u64;

    let budgeted = |mut c: RunConfig| {
        if step_budget > 0 {
            c.step_limit = step_budget;
        }
        c
    };

    // (1) + (3): five-way conformance with audited heaps.
    let mut baseline_key = String::new();
    for (name, config) in five_configs() {
        let r = rc_lang::run_audited(&compiled, &budgeted(config));
        steps += r.steps;
        let key = r.outcome.key();
        if baseline_key.is_empty() {
            baseline_key = key;
        } else if key != baseline_key {
            violations.push(Violation::Divergence {
                config: name,
                baseline: baseline_key.clone(),
                got: key,
            });
        }
        match r.audit {
            Some(Err(e)) => {
                violations.push(Violation::AuditFailure { config: name, detail: format!("{e:?}") })
            }
            Some(Ok(())) => {}
            None => violations.push(Violation::AuditFailure {
                config: name,
                detail: "audit did not run".to_string(),
            }),
        }
    }

    // (7): parallel equivalence — spawn programs rerun under the seeded
    // deterministic scheduler; ownership transfer makes the interleaving
    // unobservable, so the outcome key must match the sequential
    // baseline and the merged post-join heap must still audit.
    if has_spawn(&compiled.module) {
        let det = budgeted(RunConfig::lea().det_sched(PAR_SEED));
        let r = rc_lang::run_audited(&compiled, &det);
        steps += r.steps;
        let key = r.outcome.key();
        if key != baseline_key {
            violations
                .push(Violation::ParallelDivergence { baseline: baseline_key.clone(), got: key });
        }
        // (8): the same run's per-task reports must re-compose into the
        // merged view exactly — they are the raw material every
        // attribution surface (critpath, trace-export, parallel-matrix)
        // is built from.
        if let Some(detail) = task_report_defect(&r) {
            violations.push(Violation::TaskReportDivergence { detail });
        }
        match r.audit {
            Some(Err(e)) => violations
                .push(Violation::AuditFailure { config: "lea+det", detail: format!("{e:?}") }),
            Some(Ok(())) => {}
            None => violations.push(Violation::AuditFailure {
                config: "lea+det",
                detail: "audit did not run".to_string(),
            }),
        }
    }

    // (2): the counting rerun — observationally nq, but tallying every
    // annotation predicate per site.
    let counting = budgeted(RunConfig::rc(CheckMode::Nq).counting_checks());
    let r = rc_lang::run_audited(&compiled, &counting);
    steps += r.steps;
    let key = r.outcome.key();
    if key != baseline_key {
        violations.push(Violation::Divergence {
            config: "nq+count",
            baseline: baseline_key.clone(),
            got: key,
        });
    }
    if let Some(Err(e)) = &r.audit {
        violations.push(Violation::AuditFailure { config: "nq+count", detail: format!("{e:?}") });
    }
    let counter = r.check_counts.as_deref();
    let (checks_counted, checks_fired) =
        counter.map_or((0, 0), |c| (c.total_runs(), c.total_fails()));
    violations.extend(soundness_violations(&compiled.analysis.eliminated_sites, counter));

    // (4) + (5): replay the reference configuration with lifecycle spans
    // on; dynamic-event statistics and the span tree itself must be
    // byte-identical run to run, and the tree must verify against the
    // heap's region table.
    let inf = budgeted(RunConfig::rc_inf().with_spans());
    let a = rc_lang::run_audited(&compiled, &inf);
    let b = rc_lang::run_audited(&compiled, &inf);
    steps += a.steps + b.steps;
    if a.outcome.key() != b.outcome.key() {
        violations.push(Violation::NonDeterministic {
            detail: format!("outcome {} vs {}", a.outcome.key(), b.outcome.key()),
        });
    } else if a.stats != b.stats {
        violations.push(Violation::NonDeterministic {
            detail: "dynamic-event statistics differ between identical runs".to_string(),
        });
    } else if a.spans != b.spans {
        violations.push(Violation::NonDeterministic {
            detail: "span trees differ between identical runs".to_string(),
        });
    }
    for r in [&a, &b] {
        match r.spans.as_deref().and_then(|t| t.verification()) {
            Some(Ok(())) => {}
            Some(Err(e)) => {
                violations.push(Violation::MalformedSpans { detail: e.clone() });
                break;
            }
            None => {
                violations.push(Violation::MalformedSpans {
                    detail: "span tree missing or never sealed".to_string(),
                });
                break;
            }
        }
    }

    // (6): restore fixpoint — every snapshot the baseline allocator
    // captures (GC pauses and the exit/trap state) must restore, which
    // transitively gates verification, audit, and byte-identical
    // re-capture.
    let lea_snap = budgeted(RunConfig::lea().with_snapshots());
    let r = rc_lang::run_audited(&compiled, &lea_snap);
    steps += r.steps;
    for snap in &r.snapshots {
        if let Err(e) = region_rt::Heap::restore(snap) {
            violations.push(Violation::RestoreDivergence {
                reason: snap.reason.as_str().to_string(),
                detail: e.to_string(),
            });
            break;
        }
    }

    Ok(CaseReport {
        outcome_key: baseline_key,
        violations,
        steps,
        eliminated_sites: compiled.analysis.eliminated_sites.len(),
        checks_counted,
        checks_fired,
    })
}

/// Oracle (2) in isolation: given the analysis' eliminated-site list and
/// the counting rerun's tallies, report every eliminated site that fired.
/// Exposed separately so the mutation tests can feed a *deliberately
/// broken* elimination list through the same code path.
pub fn soundness_violations(
    eliminated: &[SiteId],
    counter: Option<&region_rt::CheckCounter>,
) -> Vec<Violation> {
    let Some(counter) = counter else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for &SiteId(site) in eliminated {
        let fails = counter.fails(site);
        if fails > 0 {
            out.push(Violation::UnsoundElimination { site, fails });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = "
struct node { int v; struct node *sameregion next; };

static struct node *mk(region r, struct node *prev, int val) {
    struct node *n = ralloc(r, struct node);
    n->v = val;
    n->next = prev;
    return n;
}

int main() deletes {
    region r = newregion();
    struct node *head = null;
    int i;
    int acc = 0;
    for (i = 0; i < 5; i = i + 1) {
        head = mk(r, head, i);
    }
    while (head != null) {
        acc = acc + head->v;
        head = head->next;
    }
    head = null;
    deleteregion(r);
    return acc;
}
";

    #[test]
    fn figure1_is_conformant() {
        let report = check_source(FIGURE1, 0).expect("compiles");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome_key, "exit:10");
        assert!(report.eliminated_sites > 0, "figure 1's checks are inferable");
        assert!(report.checks_counted > 0);
        assert_eq!(report.checks_fired, 0);
    }

    #[test]
    fn qualifier_violation_diverges_under_qs() {
        // A sameregion store crossing regions: qs aborts, nq/lea/gc/inf
        // exit normally — the oracle must flag the divergence. The
        // referring region (r1, created later) is deleted first, so the
        // teardown itself stays legal under every config.
        let src = "
struct node { int v; struct node *sameregion next; };

int main() deletes {
    region r0 = newregion();
    region r1 = newregion();
    struct node *a = ralloc(r0, struct node);
    struct node *b = ralloc(r1, struct node);
    b->next = a;
    deleteregion(r1);
    deleteregion(r0);
    return 0;
}
";
        let report = check_source(src, 0).expect("compiles");
        assert!(!report.passed());
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::Divergence { config: "qs", .. })),
            "expected a qs divergence, got {:?}",
            report.violations
        );
        assert!(report.checks_fired > 0);
    }

    #[test]
    fn broken_elimination_list_is_caught() {
        // Feed the soundness oracle a list claiming the (actually unsafe)
        // site was eliminated; it must flag the fired site.
        let src = "
struct node { int v; struct node *sameregion next; };

int main() deletes {
    region r0 = newregion();
    region r1 = newregion();
    struct node *a = ralloc(r0, struct node);
    struct node *b = ralloc(r1, struct node);
    b->next = a;
    deleteregion(r1);
    deleteregion(r0);
    return 0;
}
";
        let compiled = rc_lang::prepare(src).expect("compiles");
        let counting = RunConfig::rc(CheckMode::Nq).counting_checks();
        let r = rc_lang::run_audited(&compiled, &counting);
        let counter = r.check_counts.as_deref().expect("counting was on");
        let all_sites: Vec<SiteId> = counter.iter().map(|(s, _)| SiteId(s)).collect();
        let vs = soundness_violations(&all_sites, Some(counter));
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnsoundElimination { fails, .. } if *fails > 0)),
            "expected an unsound elimination, got {vs:?}"
        );
    }

    #[test]
    fn span_oracle_tags_are_stable() {
        let v = Violation::MalformedSpans { detail: "span 3 never closed".into() };
        assert_eq!(v.kind(), "malformed_spans");
        assert!(v.to_string().contains("malformed span tree"));
    }

    #[test]
    fn restore_oracle_tags_are_stable() {
        let v = Violation::RestoreDivergence { reason: "exit".into(), detail: "corrupt".into() };
        assert_eq!(v.kind(), "restore_divergence");
        assert!(v.to_string().contains("not restorable"));
    }

    #[test]
    fn baseline_snapshots_restore_for_a_leaking_program() {
        // The program exits with objects still live in the malloc-emulated
        // region, so the exit snapshot carries non-trivial retained state
        // the restore oracle must reconstruct.
        let src = "
struct node { int v; struct node *next; };

int main() {
    region r = newregion();
    struct node *head = null;
    int i;
    for (i = 0; i < 20; i = i + 1) {
        struct node *n = ralloc(r, struct node);
        n->v = i;
        n->next = head;
        head = n;
    }
    return 0;
}
";
        let report = check_source(src, 0).expect("compiles");
        assert!(
            !report.violations.iter().any(|v| matches!(v, Violation::RestoreDivergence { .. })),
            "restore oracle violated: {:?}",
            report.violations
        );
    }

    #[test]
    fn parallel_oracle_tags_are_stable() {
        let v = Violation::ParallelDivergence {
            baseline: "exit:7".into(),
            got: "trap:region_moved".into(),
        };
        assert_eq!(v.kind(), "parallel_divergence");
        assert!(v.to_string().contains("parallel divergence"));
        assert!(v.to_string().contains("exit:7"));
    }

    #[test]
    fn task_report_oracle_tag_is_stable() {
        // The campaign's shrink predicate and regression file names key
        // on this tag; it must never drift.
        let v = Violation::TaskReportDivergence {
            detail: "task 3 has an unbalanced scheduler log".into(),
        };
        assert_eq!(v.kind(), "task_report_divergence");
        assert!(v.to_string().contains("task report divergence"));
        assert!(v.to_string().contains("task 3"));
    }

    #[test]
    fn task_report_defect_catches_a_tampered_report_set() {
        // A healthy spawn run has no defect; perturbing one task's cycle
        // count must surface as a fold mismatch against the merged clock.
        let compiled = rc_lang::prepare(
            "
int main() deletes {
    region s0 = newregion();
    spawn s0 { int w = 1; assert(w == 1); }
    join;
    deleteregion(s0);
    return 0;
}
",
        )
        .expect("compiles");
        let cfg = RunConfig::lea().det_sched(PAR_SEED);
        let mut r = rc_lang::run_audited(&compiled, &cfg);
        assert!(!r.task_reports.is_empty(), "the det run keeps per-task reports");
        assert_eq!(task_report_defect(&r), None, "healthy run has no defect");
        r.task_reports[1].cycles += 1;
        let defect = task_report_defect(&r).expect("tampered cycles must be caught");
        assert!(defect.contains("merged clock"), "got: {defect}");
    }

    #[test]
    fn det_config_alias_resolves_to_the_baseline() {
        let c = config_by_name("lea+det").expect("lea+det resolves");
        assert_eq!(c.backend, RunConfig::lea().backend);
    }

    #[test]
    fn spawn_program_passes_the_full_oracle() {
        // Two disjoint task regions, each building and checking its own
        // list — the shape the generator emits. Assertion 7 runs here
        // (the module contains spawn) and must agree with the baseline.
        let src = "
struct node { int v; struct node *sameregion next; };

int main() deletes {
    region s0 = newregion();
    region s1 = newregion();
    spawn s0 {
        struct node *h = null;
        int q;
        for (q = 0; q < 4; q = q + 1) {
            struct node *m = ralloc(s0, struct node);
            m->v = q;
            m->next = h;
            h = m;
        }
        if (h != null) { assert(h->v == 3); }
    }
    spawn s1 {
        struct node *h = null;
        struct node *m = ralloc(s1, struct node);
        m->v = 9;
        m->next = h;
        h = m;
        assert(h->v == 9);
    }
    join;
    deleteregion(s1);
    deleteregion(s0);
    return 21;
}
";
        let report = check_source(src, 0).expect("compiles");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome_key, "exit:21");
    }

    #[test]
    fn spawned_task_failure_stays_conformant() {
        // The failing assert fires inside the task; every configuration
        // (and the deterministic scheduler) must agree on assert-failed.
        let src = "
struct node { int v; struct node *sameregion next; };

int main() deletes {
    region s0 = newregion();
    spawn s0 {
        struct node *m = ralloc(s0, struct node);
        m->v = 5;
        assert(m->v == 6);
    }
    join;
    deleteregion(s0);
    return 0;
}
";
        let report = check_source(src, 0).expect("compiles");
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome_key, "assert-failed");
    }
}
