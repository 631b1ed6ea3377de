//! The `rc-fuzz` binary: differential conformance campaign over
//! generated RC programs.
//!
//! ```text
//! cargo run --release -p rc-fuzz -- --seeds 256 --budget-steps 20000000 --json
//! ```
//!
//! Options:
//!
//! - `--seeds N` — sweep seeds `0..N` (default 64);
//! - `--size K` — generator size knob (default 6);
//! - `--budget-steps M` — per-run interpreter step budget, 0 = unlimited
//!   (default 20000000);
//! - `--json` — emit the full `rc-fuzz-report/v1` JSON on stdout instead
//!   of the human summary;
//! - `--regressions DIR` — where shrunk repros of failing seeds are
//!   written (default `tests/corpus/regressions/` in the repository);
//! - `--no-write` — do not write repro files;
//! - `--dump SEED` — print the generated source for one seed and exit
//!   (`--violations` switches the generator to violation-planting mode,
//!   `--no-spawn` suppresses `spawn`/`join` sections).
//!
//! The output is byte-deterministic for fixed options: `tools/pins.sh`
//! pins the campaign report. Exits 0 when every oracle
//! assertion held, 1 otherwise, and 2 on a usage error (a value option
//! with a missing or unparsable value).

use std::path::PathBuf;

use rc_bench::{flag_from_args, parsed_from_args, value_from_args};
use rc_fuzz::campaign::{run_campaign, CampaignConfig};

fn main() {
    let seeds = parsed_from_args("--seeds").unwrap_or(64);
    let size = parsed_from_args("--size").unwrap_or(6);
    let budget_steps = parsed_from_args("--budget-steps").unwrap_or(20_000_000);
    let dump: Option<u64> = parsed_from_args("--dump");
    let regressions = value_from_args("--regressions").map(PathBuf::from);
    let regressions_dir = if flag_from_args("--no-write") {
        None
    } else {
        Some(regressions.unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/regressions")
        }))
    };

    if let Some(seed) = dump {
        let gen_cfg = rc_fuzz::GenConfig {
            size,
            violations: flag_from_args("--violations"),
            spawn: !flag_from_args("--no-spawn"),
        };
        print!("{}", rc_fuzz::generate_source(seed, &gen_cfg));
        return;
    }

    let cfg = CampaignConfig { seeds, size, budget_steps, regressions_dir };
    let report = run_campaign(&cfg);

    if flag_from_args("--json") {
        println!("{}", report.render());
    } else {
        println!("{}", report.summary());
        for case in report.failures() {
            println!("seed {}:", case.seed);
            for v in &case.violations {
                println!("  {v}");
            }
            if let Some(name) = &case.repro {
                println!(
                    "  shrunk to {} statement(s), repro: {name}",
                    case.shrunk_statements.unwrap_or(0)
                );
            }
        }
    }

    std::process::exit(if report.passed() { 0 } else { 1 });
}
