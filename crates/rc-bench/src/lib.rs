#![warn(missing_docs)]

//! # rc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the reimplemented system:
//!
//! | Artifact | Generator |
//! |---|---|
//! | Tables 1–3 and Figures 7–9 → `EXPERIMENTS.md`, `target/experiments/<name>.json` | `cargo run -p rc-bench --bin experiments` |
//! | Design-choice ablations             | `cargo run -p rc-bench --bin ablations` |
//! | Fault-injection torture matrix      | `cargo run -p rc-bench --bin fault-matrix` |
//! | Checkpoint-recovery matrix          | `cargo run -p rc-bench --bin recovery-matrix` |
//! | Parallel spawn/join matrix          | `cargo run -p rc-bench --bin parallel-matrix` |
//! | Critical-path attribution           | `cargo run -p rc-bench --bin critpath` |
//! | Perfetto provenance trace           | `cargo run -p rc-bench --bin trace-export` |
//! | Heap snapshot dump + analysis       | `cargo run -p rc-bench --bin rc-inspect` |
//!
//! The fault, recovery and parallel matrices share one driver,
//! [`matrix`]: one gated report type, one cell runner that turns a
//! panicking cell into a violation, and one ending for their binaries.
//! Each matrix module keeps only its scenarios, configurations, cell
//! constructor, contract checks and the first lines of its summary.
//!
//! Runtime-operation wall-clock benchmarks live in `benches/runtime_ops.rs`
//! (run with `cargo bench -p rc-bench`), on the dependency-free harness in
//! [`microbench`]; `bench/` (rc-perf) times whole workloads. Every output
//! above that is byte-deterministic is pinned by `tools/pins.sh`. Passing
//! `--profile` to `experiments` or `ablations` adds a telemetry section
//! (per-site hot spots, region flamegraph); `--trace <path>` exports the
//! raw event stream as JSON Lines. See `docs/OBSERVABILITY.md`.

pub mod critpath;
pub mod faultmatrix;
pub mod fuzzreport;
pub mod inspect;
pub mod matrix;
pub mod microbench;
pub mod parallelmatrix;
pub mod provenance;
pub mod recoverymatrix;
pub mod report;
pub mod schema;
pub mod trajectory;

use std::path::Path;
use std::process::ExitCode;

use rc_workloads::Scale;

/// Parses a scale from argv (e.g. `--scale 8`), defaulting to
/// [`Scale::SMALL`]; a missing or non-integer value is a usage error, as
/// in [`value_from_args`].
pub fn scale_from_args() -> Scale {
    parsed_from_args("--scale").map(Scale).unwrap_or(Scale::SMALL)
}

/// Whether a bare `--flag` is present in argv.
pub fn flag_from_args(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `--option` in argv, if the option is present.
///
/// An option followed by nothing or by another `--flag` is a usage error:
/// the process prints a message on stderr and exits 2. Binaries read
/// their options before doing any work, so a typo never silently runs a
/// different experiment.
pub fn value_from_args(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => usage_error(&format!("{name} wants a value")),
    }
}

/// [`value_from_args`], parsed; a value that does not parse is a usage
/// error too.
pub fn parsed_from_args<T: std::str::FromStr>(name: &str) -> Option<T> {
    let v = value_from_args(name)?;
    match v.parse() {
        Ok(t) => Some(t),
        Err(_) => usage_error(&format!("bad value {v:?} for {name}")),
    }
}

fn usage_error(msg: &str) -> ! {
    let arg0 = std::env::args().next().unwrap_or_default();
    let program = std::path::Path::new(&arg0).file_name().unwrap_or_default();
    eprintln!("{}: {msg}", program.to_string_lossy());
    std::process::exit(2)
}

/// Writes a binary's output file, creating its directory first. On an
/// error, prints `program: path: error` on stderr and gives the exit code
/// 2 to return.
pub fn write_output(program: &str, path: &str, text: &str) -> Result<(), ExitCode> {
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, text)).map_err(|e| {
        eprintln!("{program}: {path}: {e}");
        ExitCode::from(2)
    })
}
