#![warn(missing_docs)]

//! # rc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the reimplemented system:
//!
//! | Artifact | Generator |
//! |---|---|
//! | Table 1 (benchmark characteristics) | `cargo run -p rc-bench --bin table1` |
//! | Table 2 (refcount overhead)         | `cargo run -p rc-bench --bin table2` |
//! | Table 3 (annotation statistics)     | `cargo run -p rc-bench --bin table3` |
//! | Figure 7 (exec time, 5 allocators)  | `cargo run -p rc-bench --bin fig7` |
//! | Figure 8 (nq/qs/inf/nc)             | `cargo run -p rc-bench --bin fig8` |
//! | Figure 9 (assignment categories)    | `cargo run -p rc-bench --bin fig9` |
//! | All of the above → EXPERIMENTS.md   | `cargo run -p rc-bench --bin experiments` |
//! | Fault-injection torture matrix      | `cargo run -p rc-bench --bin fault-matrix` |
//! | Checkpoint-recovery matrix          | `cargo run -p rc-bench --bin recovery-matrix` |
//! | Parallel spawn/join matrix          | `cargo run -p rc-bench --bin parallel-matrix` |
//! | Critical-path attribution           | `cargo run -p rc-bench --bin critpath` |
//! | Perfetto provenance trace           | `cargo run -p rc-bench --bin trace-export` |
//! | Heap snapshot dump + analysis       | `cargo run -p rc-bench --bin rc-inspect` |
//!
//! Wall-clock benchmarks live in `benches/` (run with `cargo bench -p
//! rc-bench`), on the dependency-free harness in [`microbench`]. Passing
//! `--profile` to `experiments` or `ablations` adds a telemetry section
//! (per-site hot spots, region flamegraph); `--trace <path>` exports the
//! raw event stream as JSON Lines. See `docs/OBSERVABILITY.md`.

pub mod critpath;
pub mod faultmatrix;
pub mod fuzzreport;
pub mod inspect;
pub mod microbench;
pub mod parallelmatrix;
pub mod provenance;
pub mod recoverymatrix;
pub mod report;
pub mod schema;
pub mod trajectory;

use rc_workloads::Scale;

/// Parses a scale from argv (e.g. `--scale 8`), defaulting to
/// [`Scale::SMALL`].
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return Scale(v);
            }
        }
    }
    Scale::SMALL
}

/// Whether a bare `--flag` is present in argv.
pub fn flag_from_args(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// The value following `--option` in argv, if any.
pub fn value_from_args(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// The message of a caught panic, for reporting a crashed cell.
pub(crate) fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
