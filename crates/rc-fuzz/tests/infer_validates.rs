//! Inferred summaries pass Figure 6's checking judgments on generated
//! programs.
//!
//! `rlang::validate` re-runs every function body from its inferred input
//! summary and demands that each call site entail the callee's input
//! summary and each exit the function's own output summary — the
//! greatest-fixed-point property stated as a checker. Its unit tests
//! cover hand-built programs; this pins it on campaign programs, whose
//! call graphs, loops and `spawn` sections reach far more of the
//! inference. The sizes run up to the wall-clock benchmark's, and
//! qualifier-violating programs are included because only they retain
//! checks, which sends their functions through the loss-tracking verdict
//! pass. In debug builds `rlang::analyse` also holds every result to its
//! reference round loop, so these programs check that equivalence too.

use rc_fuzz::{generate_source, GenConfig};

#[test]
fn inferred_summaries_validate_on_campaign_programs() {
    let mut retained = 0;
    for violations in [false, true] {
        for size in [2, 4, 6, 8, 10, 14] {
            let cfg = GenConfig { size, violations, ..GenConfig::default() };
            for seed in 0..8 {
                let case = format!("size {size} seed {seed} violations {violations}");
                let src = generate_source(seed, &cfg);
                let module =
                    rc_lang::compile(&src).unwrap_or_else(|e| panic!("{case}: {e}\n{src}"));
                let p = rc_lang::to_rlang::translate(&module);
                if let Err(e) = rlang::well_formed(&p) {
                    panic!("{case}: translation is ill-formed: {e}");
                }
                let a = rlang::analyse(&p);
                let errors = rlang::validate(&p, &a);
                assert!(errors.is_empty(), "{case}: {errors:#?}");
                retained += a.site_count() - a.safe_count();
            }
        }
    }
    assert!(retained > 0, "no generated program retains a check");
}
