//! Runs the fault-injection torture matrix and gates on the robustness
//! contract.
//!
//! Usage: `cargo run -p rc-bench --bin fault-matrix -- [--scale N]
//! [--out FAULTMATRIX_rc.json]`.
//!
//! Sweeps the Figure 7 workloads under every allocator configuration ×
//! every fault scenario (scheduled injections per plane plus page-budget
//! squeezes) with trap-and-unwind recovery on. Prints a summary, writes
//! the byte-deterministic JSON report when `--out` is given, and exits 0
//! when the gate passes (no panics, post-fault audits clean, allocator
//! configs agreeing on OOM landings), 1 on a violation, 2 on bad
//! arguments or I/O errors.

use std::process::ExitCode;

use rc_bench::faultmatrix;

fn main() -> ExitCode {
    let scale = rc_bench::scale_from_args();
    let out = rc_bench::value_from_args("--out");
    let report = faultmatrix::collect(scale);
    report.finish("fault-matrix", &report.summary(), out.as_deref())
}
