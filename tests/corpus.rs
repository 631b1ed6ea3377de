//! The conformance corpus: hand-minimised golden programs, one per
//! grammar feature, each cross-checked through the full differential
//! oracle (five allocator configurations, inference-soundness counting,
//! heap audits, replay determinism).
//!
//! Every `tests/corpus/*.rc` file carries an `// expect: <outcome-key>`
//! header; the harness asserts both that the oracle finds no violation
//! and that the agreed outcome matches the header. Files under
//! `tests/corpus/regressions/` are shrunk fuzz repros and are asserted
//! to *still fail* with their recorded violation kind (the file-name
//! suffix), so silently fixed bugs surface as stale repros.

use std::path::{Path, PathBuf};

const STEP_BUDGET: u64 = 50_000_000;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn rc_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "rc"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// The `// expect: <key>` header of a golden program.
fn expected_outcome(src: &str) -> Option<String> {
    src.lines().find_map(|l| l.strip_prefix("// expect: ")).map(|s| s.trim().to_string())
}

#[test]
fn golden_corpus_is_conformant_across_all_configs() {
    let files = rc_files(&corpus_dir());
    assert!(files.len() >= 15, "expected at least 15 golden programs, found {}", files.len());
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).expect("corpus file is readable");
        let expect = expected_outcome(&src)
            .unwrap_or_else(|| panic!("{name}: missing `// expect: <outcome>` header"));
        let report = rc_fuzz::check_source(&src, STEP_BUDGET)
            .unwrap_or_else(|e| panic!("{name}: does not compile: {e}"));
        assert!(report.passed(), "{name}: oracle violations: {:?}", report.violations);
        assert_eq!(report.outcome_key, expect, "{name}: outcome drifted from its golden header");
    }
}

#[test]
fn golden_corpus_round_trips_through_the_pretty_printer() {
    for path in rc_files(&corpus_dir()) {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).expect("corpus file is readable");
        let a1 = rc_lang::parser::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = rc_lang::pretty::print_ast(&a1);
        let a2 = rc_lang::parser::parse(&printed)
            .unwrap_or_else(|e| panic!("{name}: printed source does not parse: {e}\n{printed}"));
        assert_eq!(
            rc_lang::pretty::normalise(&a1),
            rc_lang::pretty::normalise(&a2),
            "{name}: round trip changed the AST"
        );
    }
}

#[test]
fn promoted_regressions_still_reproduce() {
    for path in rc_files(&corpus_dir().join("regressions")) {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).expect("regression file is readable");
        // seed<hex>-<kind>.rc → <kind>.
        let kind = name
            .strip_suffix(".rc")
            .and_then(|s| s.split_once('-').map(|(_, k)| k.to_string()))
            .unwrap_or_else(|| panic!("{name}: not a seedXXXX-<kind>.rc regression name"));
        let report = rc_fuzz::check_source(&src, STEP_BUDGET)
            .unwrap_or_else(|e| panic!("{name}: does not compile: {e}"));
        assert!(
            report.violations.iter().any(|v| v.kind() == kind),
            "{name}: recorded violation `{kind}` no longer reproduces \
             (got {:?}) — delete the file or promote the program to the \
             golden corpus",
            report.violations
        );
    }
}
