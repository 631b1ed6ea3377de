//! A tour of the RC compiler pipeline: parse → typecheck → translate to
//! rlang → infer constraints → per-site verdicts → execute.
//!
//! ```text
//! cargo run --example compiler_pipeline
//! ```
//!
//! Shows, for each annotated assignment in an lcc-style program, whether
//! the §4.3 constraint inference eliminated its runtime check — including
//! the two idioms from §5.2 that defeat the analysis (array reads, global
//! regions) and the ones that succeed (`regionof`, consistent constructor
//! call sites).

use rc_regions::lang::{compile, prepare, run, RunConfig};
use rc_regions::types::SiteId;

const PROGRAM: &str = r#"
    struct node { int v; struct node *sameregion next; };
    struct node *spill[8];

    // Consistent call sites: the interprocedural idiom that verifies.
    static struct node *cons(region r, int v, struct node *rest) {
        struct node *n = ralloc(r, struct node);
        n->v = v;
        n->next = rest;                          // site A: verified
        return n;
    }

    int main() {
        region r = newregion();
        struct node *list = null;
        int i;
        for (i = 0; i < 10; i = i + 1) {
            list = cons(r, i, list);
        }
        // The regionof idiom: verified.
        struct node *extra = ralloc(regionof(list), struct node);
        extra->next = list;                      // site B: verified
        // The array idiom: "nothing is known about objects accessed from
        // arbitrary arrays" — the check stays.
        spill[3] = extra;
        struct node *fetched = spill[3];
        struct node *tail = ralloc(r, struct node);
        tail->next = fetched;                    // site C: runtime check
        spill[3] = null;
        return list->v + tail->next->v;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Phase 1-2: parse + typecheck.
    let module = compile(PROGRAM)?;
    println!(
        "parsed {} structs, {} globals, {} functions",
        module.structs.len(),
        module.globals.len(),
        module.funcs.len()
    );

    // Phase 3-4: translate to rlang and run the inference.
    let compiled = prepare(PROGRAM)?;
    let analysis = &compiled.analysis;
    println!("\nconstraint inference converged in {} round(s)", analysis.rounds);
    println!("check sites: {} total, {} proven safe", analysis.site_count(), analysis.safe_count());

    // Per-site verdicts with the flow state the analysis saw.
    let mut sites: Vec<SiteId> = analysis.site_safe.keys().copied().collect();
    sites.sort();
    println!("\n{:<8} {:<10} flow state at the check", "site", "verdict");
    for site in sites {
        let verdict = if analysis.is_safe(site) { "SAFE" } else { "check" };
        let state = analysis.site_states.get(&site).map(|s| s.to_string()).unwrap_or_default();
        let state: String = if state.chars().count() > 60 {
            let cut: String = state.chars().take(60).collect();
            format!("{cut}…")
        } else {
            state
        };
        println!("{:<8} {:<10} {}", format!("#{}", site.0), verdict, state);
    }

    // Phase 5: execute under `inf` — eliminated checks do no work.
    let result = run(&compiled, &RunConfig::rc_inf());
    println!("\nexecution: {:?}", result.outcome);
    println!("checks executed at runtime : {}", result.stats.checks_sameregion);
    println!("statically-safe stores     : {}", result.stats.assigns_safe);
    Ok(())
}
