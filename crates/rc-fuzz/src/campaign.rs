//! Campaign driver: sweep seeds, run the oracle, shrink failures, and
//! assemble the `rc-fuzz-report/v1` report.
//!
//! A campaign is a pure function of its [`CampaignConfig`]: the report —
//! rendered JSON included — is byte-identical across runs, which
//! `tools/pins.sh` exploits by pinning the report's digest.

use std::path::PathBuf;

use rc_bench::fuzzreport::{FuzzCase, FuzzReport};

use crate::gen::{generate_source, statement_count, GenConfig};
use crate::oracle::{check_source, config_by_name, Violation};
use crate::shrink::shrink;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Sweep seeds `0..seeds`.
    pub seeds: u64,
    /// Generator size knob.
    pub size: u32,
    /// Per-run interpreter step budget (0 = unlimited).
    pub budget_steps: u64,
    /// Where shrunk repros of failing seeds are written (`None` = don't
    /// write).
    pub regressions_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { seeds: 64, size: 6, budget_steps: 20_000_000, regressions_dir: None }
    }
}

/// The deterministic regression file name for a failing seed.
pub fn repro_file_name(seed: u64, kind: &str) -> String {
    format!("seed{seed:04x}-{kind}.rc")
}

/// The deterministic file name of a post-mortem snapshot written next to
/// a repro.
pub fn snapshot_file_name(seed: u64, kind: &str, config: &str) -> String {
    format!("seed{seed:04x}-{kind}.{config}.snapshot.json")
}

/// Reruns `src` under the named oracle configuration with heap snapshots
/// on and returns the final (exit or trap) snapshot rendered as
/// `rc-bench-snapshot/v1` JSON, labeled `seedXXXX/config`. `None` when
/// the config is unknown, the shrunk source no longer compiles, or the
/// run aborts without a capture — snapshot dumping is best-effort
/// forensics and must never mask the original violation.
fn render_snapshot(src: &str, seed: u64, config_name: &str, budget_steps: u64) -> Option<String> {
    let mut config = config_by_name(config_name)?.with_spans().with_snapshots();
    if budget_steps > 0 {
        config.step_limit = budget_steps;
    }
    let compiled = rc_lang::prepare(src).ok()?;
    let r = rc_lang::run(&compiled, &config);
    let mut snap = r.snapshots.into_iter().next_back()?;
    snap.label = format!("seed{seed:04x}/{config_name}");
    Some(snap.render())
}

/// Renders a self-contained regression file: provenance header plus the
/// shrunk program.
pub fn render_repro(seed: u64, violations: &[String], shrunk_src: &str) -> String {
    let mut out = format!("// rc-fuzz regression: seed={seed}\n");
    for v in violations {
        out.push_str(&format!("// violation: {v}\n"));
    }
    out.push_str("//\n// Reproduce: cargo test -p rc-regions --test corpus\n");
    out.push_str(shrunk_src);
    out
}

/// Runs one seed end to end: generate, replay-check, oracle, shrink.
pub fn run_seed(seed: u64, cfg: &CampaignConfig) -> FuzzCase {
    let gen_cfg = GenConfig { size: cfg.size, violations: false, spawn: true };
    let src = generate_source(seed, &gen_cfg);
    let mut case = FuzzCase {
        seed,
        outcome: String::new(),
        passed: false,
        violations: Vec::new(),
        steps: 0,
        eliminated_sites: 0,
        checks_counted: 0,
        checks_fired: 0,
        shrunk_statements: None,
        repro: None,
    };

    // Byte-deterministic replay from the seed alone.
    if generate_source(seed, &gen_cfg) != src {
        case.violations.push("non-deterministic replay: generated source differs".to_string());
        return case;
    }

    let report = match check_source(&src, cfg.budget_steps) {
        Ok(r) => r,
        Err(e) => {
            // Generated programs are well-typed by construction; a compile
            // error is a harness bug and fails the campaign loudly.
            case.violations.push(format!("generated program does not compile: {e}"));
            return case;
        }
    };
    case.outcome = report.outcome_key.clone();
    case.steps = report.steps;
    case.eliminated_sites = report.eliminated_sites as u64;
    case.checks_counted = report.checks_counted;
    case.checks_fired = report.checks_fired;
    case.passed = report.passed();
    case.violations = report.violations.iter().map(|v| v.to_string()).collect();

    if !report.passed() {
        let kind = report.violations[0].kind();
        // Shrink while the primary violation kind persists. Sites and
        // line numbers are re-minted on every reprint, so the predicate
        // matches on the violation *kind*, not its payload.
        let ast = rc_lang::parser::parse(&src).expect("generated source parses");
        let still_fails = |a: &rc_lang::ast::Ast| -> bool {
            let printed = rc_lang::pretty::print_ast(a);
            match check_source(&printed, cfg.budget_steps) {
                Ok(r) => r.violations.iter().any(|v| v.kind() == kind),
                Err(_) => false,
            }
        };
        let min = shrink(&ast, &still_fails);
        case.shrunk_statements = Some(statement_count(&min) as u64);
        let name = repro_file_name(seed, kind);
        if let Some(dir) = &cfg.regressions_dir {
            let shrunk_src = rc_lang::pretty::print_ast(&min);
            let body = render_repro(seed, &case.violations, &shrunk_src);
            let _ = std::fs::create_dir_all(dir);
            if std::fs::write(dir.join(&name), body).is_ok() {
                case.repro = Some(name);
            }
            // Post-mortem pair: the baseline and the first implicated
            // configuration, rerun on the shrunk program with snapshots
            // on, written beside the repro for `rc-bench inspect diff`.
            let implicated = report
                .violations
                .iter()
                .find_map(|v| match v {
                    Violation::Divergence { config, .. }
                    | Violation::AuditFailure { config, .. } => Some(*config),
                    _ => None,
                })
                .unwrap_or("inf");
            for cname in ["lea", implicated] {
                if let Some(rendered) = render_snapshot(&shrunk_src, seed, cname, cfg.budget_steps)
                {
                    let _ =
                        std::fs::write(dir.join(snapshot_file_name(seed, kind, cname)), rendered);
                }
            }
        } else {
            case.repro = Some(name);
        }
    }
    case
}

/// Runs the whole campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> FuzzReport {
    let cases = (0..cfg.seeds).map(|seed| run_seed(seed, cfg)).collect();
    FuzzReport { seeds: cfg.seeds, size: cfg.size, budget_steps: cfg.budget_steps, cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_sweep_is_clean_and_deterministic() {
        // The tier-1 anchor: a small fixed-seed campaign must be
        // violation-free, and its rendered report byte-stable.
        let cfg = CampaignConfig { seeds: 24, budget_steps: 20_000_000, ..Default::default() };
        let a = run_campaign(&cfg);
        for c in &a.cases {
            assert!(c.passed, "seed {} failed: {:?}", c.seed, c.violations);
        }
        assert!(
            a.cases.iter().map(|c| c.checks_counted).sum::<u64>() > 0,
            "the sweep must exercise annotation checks"
        );
        assert!(
            a.cases.iter().map(|c| c.eliminated_sites).sum::<u64>() > 0,
            "the sweep must exercise the inference"
        );
        let b = run_campaign(&cfg);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }

    #[test]
    fn snapshot_pair_renders_for_a_diverging_program() {
        // The qualifier-matrix divergence program: qs traps the cross-
        // region store, lea does not. Both post-mortems must render,
        // deterministically, with the seed/config label stamped in.
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
        for cname in ["lea", "qs"] {
            let one = render_snapshot(src, 0x2a, cname, 0).expect("snapshot renders");
            let two = render_snapshot(src, 0x2a, cname, 0).unwrap();
            assert_eq!(one, two, "{cname} snapshot must be byte-deterministic");
            assert!(one.contains(&format!("\"seed002a/{cname}\"")), "label stamped");
            assert!(one.contains("rc-bench-snapshot/v1"));
        }
        // The counting alias and unknown names resolve sanely.
        assert!(render_snapshot(src, 1, "nq+count", 0).is_some());
        assert!(render_snapshot(src, 1, "bogus", 0).is_none());
        assert_eq!(
            snapshot_file_name(0x2a, "divergence", "qs"),
            "seed002a-divergence.qs.snapshot.json"
        );
    }

    #[test]
    fn repro_files_are_self_contained() {
        let body = render_repro(
            0x2a,
            &["divergence: qs saw abort:check_failed, baseline saw exit:0".to_string()],
            "int main() { return 0; }\n",
        );
        assert!(body.starts_with("// rc-fuzz regression: seed=42\n"));
        assert!(body.contains("// violation: divergence"));
        assert!(body.ends_with("int main() { return 0; }\n"));
        assert_eq!(repro_file_name(0x2a, "divergence"), "seed002a-divergence.rc");
    }
}
