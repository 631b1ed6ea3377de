//! Runs the parallel spawn/join matrix and gates on the parallel
//! contract.
//!
//! Usage: `cargo run -p rc-bench --bin parallel-matrix -- [--scale N]
//! [--out PARALLELMATRIX_rc.json] [--speedup]`.
//!
//! Sweeps the spawn/join variants of the Figure 7 workloads across
//! 1/2/4/8 tasks × `lea`/`GC`/`qs`, running every cell both sequentially
//! and under the seeded deterministic scheduler. Prints a summary, writes
//! the byte-deterministic JSON report when `--out` is given (virtual
//! clock only — `tools/pins.sh` pins it), and exits 0 when the gate
//! passes (every cell outcome-equivalent, audit-clean and
//! report-identical across schedulers), 1 on a violation, 2 on bad
//! arguments or I/O errors.
//!
//! `--speedup` instead measures real-thread wall-clock scaling (1 vs 4
//! workers on each workload's 4-task variant) and requires a ≥2×
//! speedup on at least one workload. On machines reporting fewer than 4
//! hardware threads the probe is skipped with exit 0: no scaling is
//! physically possible there, and wall-clock never gates determinism.

use std::process::ExitCode;

use rc_bench::parallelmatrix;

fn main() -> ExitCode {
    let scale = rc_bench::scale_from_args();
    let out = rc_bench::value_from_args("--out");
    if rc_bench::flag_from_args("--speedup") {
        return speedup(scale);
    }
    let report = parallelmatrix::collect(scale);
    print!("{}", report.summary());
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, report.render()) {
            eprintln!("parallel-matrix: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("report written to {path}");
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn speedup(scale: rc_workloads::Scale) -> ExitCode {
    let Some(probes) = parallelmatrix::speedup_probe(scale) else {
        let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        println!(
            "parallel-matrix: speedup probe skipped ({cores} hardware thread(s) < 4); \
             scheduler equivalence is gated by the deterministic matrix instead"
        );
        return ExitCode::SUCCESS;
    };
    let mut best: Option<&parallelmatrix::Speedup> = None;
    for p in &probes {
        println!(
            "{:>8}: 1 worker {:8.2} ms, 4 workers {:8.2} ms — {:.2}x",
            p.workload,
            p.one_ms,
            p.four_ms,
            p.factor()
        );
        if best.is_none_or(|b| p.factor() > b.factor()) {
            best = Some(p);
        }
    }
    match best {
        Some(b) if b.factor() >= 2.0 => {
            println!("best scaling: {} at {:.2}x — speedup gate: PASS", b.workload, b.factor());
            ExitCode::SUCCESS
        }
        Some(b) => {
            eprintln!(
                "speedup gate: FAIL — best was {} at {:.2}x (< 2x)",
                b.workload,
                b.factor()
            );
            ExitCode::from(1)
        }
        None => {
            eprintln!("speedup gate: FAIL — no workload produced a measurement");
            ExitCode::from(1)
        }
    }
}
