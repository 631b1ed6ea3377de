//! `rc-bench critpath`: renders the critical path of one parallel workload
//! cell.
//!
//! Usage: `cargo run -p rc-bench -- critpath [--workload moss]
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

use rc_bench::{critpath, parallelmatrix, Args};

pub fn main(args: Vec<String>) -> ExitCode {
    let valued = ["--scale", "--workload", "--tasks", "--det-seed", "--config", "--out"];
    let args = Args::parse("critpath", args, &[], &valued, 0);
    let scale = args.scale();
    let wname = args.value("--workload").unwrap_or("moss");
    let tasks = args.parsed("--tasks").unwrap_or(4);
    let seed = args.parsed("--det-seed").unwrap_or(critpath::DET_SEED);
    let cname = args.value("--config").unwrap_or("lea");
    let out = args.value("--out");
    let Some((_, config)) = parallelmatrix::configs().into_iter().find(|(n, _)| *n == cname) else {
        args.fail(&format!("unknown config {cname:?} (want lea|GC|qs)"));
    };

    let run = critpath::collect(wname, tasks, cname, &config, scale, seed);
    let run = run.unwrap_or_else(|e| args.fail(&e));

    print!("{}", run.render_text());

    if let Some(path) = out {
        if let Err(code) = rc_bench::write_output("critpath", path, &run.render()) {
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
