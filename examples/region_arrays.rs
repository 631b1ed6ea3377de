//! The program Walker–Morrisett's static region type system *cannot*
//! type, running safely under RC — the expressivity argument of the
//! paper's §2:
//!
//! ```c
//! region r[n];
//! struct data *d[m];
//! for (i = 0; i < n; i++) r[i] = newregion();
//! for (i = 0; i < m; i++) d[i] = ralloc(r[random(0, n)], ...);
//! ```
//!
//! "There is a type for r, but no type for d in Walker and Morrisett's
//! type system … one of our benchmarks contains a list of nested
//! environments with each environment allocated in its own region."
//!
//! ```text
//! cargo run --example region_arrays
//! ```

use rc_regions::lang::{prepare, run, Outcome, RunConfig};

const PROGRAM: &str = r#"
    struct data { int v; };
    region r[4];
    struct data *d[16];
    int rng;

    static int random(int m) {
        rng = (rng * 1103515245 + 12345) % 2147483647;
        if (rng < 0) { rng = -rng; }
        return rng % m;
    }

    int main() deletes {
        rng = 20010617;
        int i;
        for (i = 0; i < 4; i = i + 1) {
            r[i] = newregion();
        }
        // Objects land in *statically unknowable* regions: there is no
        // type for d in a static region system, but RC types it with an
        // existential (∃ρ'. data[ρ']@ρ') and stays safe dynamically.
        for (i = 0; i < 16; i = i + 1) {
            d[i] = ralloc(r[random(4)], struct data);
            d[i]->v = i;
        }
        int sum = 0;
        for (i = 0; i < 16; i = i + 1) {
            // regionof recovers the region at runtime.
            struct data *twin = ralloc(regionof(d[i]), struct data);
            twin->v = d[i]->v * 2;
            sum = sum + twin->v;
        }
        // Regions with external references refuse to die…
        int refused = 0;
        for (i = 0; i < 4; i = i + 1) {
            region dead = r[i];
            if (deleteregion(dead) != 0) {
                refused = refused + 1;
            }
        }
        // …until the references are cleared.
        for (i = 0; i < 16; i = i + 1) {
            d[i] = null;
        }
        for (i = 0; i < 4; i = i + 1) {
            region dead = r[i];
            r[i] = null;
            deleteregion(dead);
        }
        assert(sum == 240);
        return refused;
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled = prepare(PROGRAM)?;

    // Under the `Fail` semantics deleteregion reports instead of aborting,
    // so the program can count the refusals itself.
    let mut cfg = RunConfig::rc_inf();
    cfg.delete_semantics = rc_regions::lang::DeleteSemantics::Fail;
    let r = run(&compiled, &cfg);
    let Outcome::Exit(refused) = r.outcome else { panic!("unexpected outcome: {:?}", r.outcome) };
    println!("regions that refused deletion while the d[] table pointed in: {refused}/4");
    println!("(all four deleted cleanly once the table was cleared)");
    println!("reference-count updates performed: {}", r.stats.rc_updates_full);
    println!("\nThis is the §2 program that has no type in Walker–Morrisett's");
    println!("static system: RC types d[] existentially and enforces safety");
    println!("with the per-region reference counts instead.");
    Ok(())
}
