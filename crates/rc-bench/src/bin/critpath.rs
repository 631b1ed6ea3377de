//! Renders the critical path of one parallel workload cell.
//!
//! Usage: `cargo run -p rc-bench --bin critpath -- [--workload moss]
//! [--tasks 4] [--config lea|GC|qs] [--scale N] [--det-seed N]
//! [--out CRITPATH_rc.json]`.
//!
//! Runs the workload's spawn/join variant under the seeded deterministic
//! scheduler, computes the work/span decomposition from the per-task
//! reports, and prints the critical path link by link with
//! `workload:line` spawn-site attribution. With `--out`, also writes the
//! byte-deterministic JSON report (pinned by `tools/pins.sh`).
//! Exits 0 when the work/span identities hold, 1 when they do not, 2 on
//! bad arguments or I/O errors.

use std::process::ExitCode;

use rc_bench::{critpath, parallelmatrix};

fn main() -> ExitCode {
    let scale = rc_bench::scale_from_args();
    let wname = rc_bench::value_from_args("--workload").unwrap_or_else(|| "moss".to_string());
    let tasks = rc_bench::parsed_from_args("--tasks").unwrap_or(4);
    let seed = rc_bench::parsed_from_args("--det-seed").unwrap_or(critpath::DET_SEED);
    let cname = rc_bench::value_from_args("--config").unwrap_or_else(|| "lea".to_string());
    let out = rc_bench::value_from_args("--out");
    let Some((_, config)) = parallelmatrix::configs().into_iter().find(|(n, _)| *n == cname) else {
        eprintln!("critpath: unknown config {cname:?} (want lea|GC|qs)");
        return ExitCode::from(2);
    };

    let run = match critpath::collect(&wname, tasks, &cname, &config, scale, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("critpath: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", run.render_text());

    if let Some(path) = out {
        if let Err(code) = rc_bench::write_output("critpath", &path, &run.render()) {
            return code;
        }
        println!("report written to {path}");
    }

    // The work/span identities the matrix gates cell by cell, re-checked
    // here so a standalone invocation still fails loudly.
    let cp = &run.cp;
    let task_sum: u64 = cp.tasks.iter().map(|t| t.cycles).sum();
    if cp.work != task_sum || cp.span > cp.work || cp.span + cp.overlapped() != cp.work {
        eprintln!(
            "critpath: identity violation — work {} (Σ tasks {}), span {}, overlapped {}",
            cp.work,
            task_sum,
            cp.span,
            cp.overlapped()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
