//! Inferred summaries pass Figure 6's checking judgments on generated
//! programs.
//!
//! `rlang::validate` re-runs every function body from its inferred input
//! summary and demands that each call site entail the callee's input
//! summary and each exit the function's own output summary — the
//! greatest-fixed-point property stated as a checker. Its unit tests
//! cover hand-built programs; this pins it on campaign programs, whose
//! call graphs, loops and `spawn` sections reach far more of the
//! inference.

use rc_fuzz::{generate_source, GenConfig};

#[test]
fn inferred_summaries_validate_on_campaign_programs() {
    for size in [2, 4, 6, 8] {
        let cfg = GenConfig { size, ..GenConfig::default() };
        for seed in 0..8 {
            let src = generate_source(seed, &cfg);
            let module = rc_lang::compile(&src)
                .unwrap_or_else(|e| panic!("size {size} seed {seed}: {e}\n{src}"));
            let p = rc_lang::to_rlang::translate(&module);
            if let Err(e) = rlang::well_formed(&p) {
                panic!("size {size} seed {seed}: translation is ill-formed: {e}");
            }
            let violations = rlang::validate(&p, &rlang::analyse(&p));
            assert!(violations.is_empty(), "size {size} seed {seed}: {violations:#?}");
        }
    }
}
