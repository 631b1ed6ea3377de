//! Running workloads under configurations.

use rc_lang::interp::{prepare, run_audited, Compiled, Outcome};
use rc_lang::RunConfig;

use crate::{Scale, Workload};

/// Compiles a workload at a scale.
///
/// # Panics
///
/// Panics if the workload source fails to compile — workload sources are
/// fixtures, so that is a bug.
pub fn prepare_workload(w: &Workload, scale: Scale) -> Compiled {
    let src = (w.source)(scale);
    match prepare(&src) {
        Ok(c) => c,
        Err(e) => panic!("workload {} does not compile: {e}", w.name),
    }
}

/// Static annotation statistics for Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticStats {
    /// Annotation keywords in the source (`sameregion` + `parentptr` +
    /// `traditional`, excluding the `traditionalregion()` builtin).
    pub keywords: usize,
    /// Annotated assignment sites (chk sites in the rlang translation).
    pub sites: usize,
    /// Sites proven safe by the constraint inference.
    pub safe_sites: usize,
}

impl StaticStats {
    /// Percentage of annotated sites proven safe.
    pub fn safe_pct(&self) -> f64 {
        if self.sites == 0 {
            0.0
        } else {
            100.0 * self.safe_sites as f64 / self.sites as f64
        }
    }
}

/// Computes Table 3's static columns for a workload.
pub fn static_stats(w: &Workload, scale: Scale) -> StaticStats {
    let src = (w.source)(scale);
    let c = prepare_workload(w, scale);
    let keywords = count_keywords(&src);
    StaticStats { keywords, sites: c.analysis.site_count(), safe_sites: c.analysis.safe_count() }
}

fn count_keywords(src: &str) -> usize {
    let mut n = 0;
    for kw in ["sameregion", "parentptr", "traditional"] {
        let mut rest = src;
        while let Some(pos) = rest.find(kw) {
            let after = &rest[pos + kw.len()..];
            // `traditional` must not match `traditionalregion`.
            if !after.starts_with("region") {
                n += 1;
            }
            rest = &rest[pos + kw.len()..];
        }
    }
    n
}

/// Test helper: runs a workload at tiny scale under every Figure 7 and
/// Figure 8 configuration, auditing the heap and demanding the same exit
/// code everywhere.
///
/// # Panics
///
/// Panics on any abort, audit failure, or exit-code disagreement.
pub fn smoke_all_configs(w: &Workload) {
    let c = prepare_workload(w, Scale::TINY);
    let mut exit: Option<i64> = None;
    let configs = RunConfig::figure7().into_iter().chain(RunConfig::figure8());
    for (name, cfg) in configs {
        let r = run_audited(&c, &cfg);
        if let Some(Err(e)) = &r.audit {
            panic!("{}/{name}: audit failed: {e}", w.name);
        }
        let code = match r.outcome {
            Outcome::Exit(n) => n,
            other => panic!("{}/{name}: did not exit: {other:?}", w.name),
        };
        match exit {
            None => exit = Some(code),
            Some(prev) => assert_eq!(
                prev, code,
                "{}/{name}: exit code diverged across configurations",
                w.name
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_counter_ignores_traditionalregion() {
        let src =
            "struct t *traditional x; region r = traditionalregion(); struct t *sameregion y;";
        assert_eq!(count_keywords(src), 2);
    }
}

#[cfg(test)]
mod validation_tests {
    use crate::{all, Scale};
    use rc_lang::to_rlang;

    /// Every benchmark's rlang translation is structurally well-formed and
    /// its inferred summaries pass the Figure 6 checking judgments.
    #[test]
    fn all_workload_translations_validate() {
        for w in all() {
            let m = rc_lang::compile(&(w.source)(Scale::TINY)).unwrap();
            let p = to_rlang::translate(&m);
            rlang::well_formed(&p).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let a = rlang::analyse(&p);
            let violations = rlang::validate(&p, &a);
            assert!(violations.is_empty(), "{}: {violations:?}", w.name);
        }
    }
}

#[cfg(test)]
mod pretty_tests {
    use crate::{all, Scale};
    use rc_lang::parser::parse;
    use rc_lang::pretty::{normalise, print_ast};

    /// The pretty-printer round-trips every benchmark source: the suite
    /// exercises the full grammar, so this locks printer and parser
    /// together.
    #[test]
    fn workload_sources_round_trip() {
        for w in all() {
            let src = (w.source)(Scale::TINY);
            let a1 = parse(&src).unwrap();
            let printed = print_ast(&a1);
            let a2 = parse(&printed)
                .unwrap_or_else(|e| panic!("{}: printed source does not parse: {e}", w.name));
            assert_eq!(normalise(&a1), normalise(&a2), "{}: round trip changed AST", w.name);
        }
    }
}
