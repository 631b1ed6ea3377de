//! `rc-bench trace-export`: exports one workload run as a
//! Perfetto-loadable trace.
//!
//! Usage: `cargo run -p rc-bench -- trace-export [--workload cfrac]
//! [--config nq|qs|inf|nc] [--scale N] [--out PATH]`, or, for a parallel
//! run, `trace-export --parallel [--workload moss] [--tasks 4]
//! [--det-seed N] [--scale N] [--out PATH]`. Each mode refuses the
//! other's options.
//!
//! The default mode runs the workload with region lifecycle spans on,
//! joins every dynamic check against the static inference verdict and
//! reason, and writes Chrome trace-event JSON (open in
//! <https://ui.perfetto.dev>) — one track per region.
//!
//! `--parallel` instead runs the workload's spawn/join variant under the
//! seeded deterministic scheduler and writes a *multi-track* trace: one
//! track per task (an `"X"` slice over the task's shared-clock lifetime,
//! scheduler events as instants), with the work/span headline numbers in
//! `otherData`. Both exports are byte-deterministic and pinned by
//! `tools/pins.sh`. Exits 0 on success, 2 on bad arguments or I/O errors.

use std::process::ExitCode;

use rc_bench::{critpath, provenance, Args};
use rc_lang::RunConfig;

pub fn main(args: Vec<String>) -> ExitCode {
    if args.iter().any(|a| a == "--parallel") {
        let valued = ["--workload", "--tasks", "--det-seed", "--scale", "--out"];
        return parallel(&Args::parse("trace-export", args, &["--parallel"], &valued, 0));
    }
    let args =
        Args::parse("trace-export", args, &[], &["--workload", "--config", "--scale", "--out"], 0);
    let scale = args.scale();
    let wname = args.value("--workload").unwrap_or("cfrac");
    let cname = args.value("--config").unwrap_or("qs");
    let default_out = format!("target/experiments/trace_{wname}_{cname}.json");
    let out = args.value("--out").unwrap_or(&default_out);

    let Some(workload) = rc_workloads::by_name(wname) else {
        args.fail(&format!("unknown workload {wname:?}"));
    };
    let Some((_, config)) = RunConfig::figure8().into_iter().find(|(n, _)| *n == cname) else {
        args.fail(&format!("unknown config {cname:?} (want nq|qs|inf|nc)"));
    };

    let export = provenance::collect(&workload, cname, &config, scale);

    print!("{}", provenance::coverage_markdown(&export));
    println!(
        "\n{} spans ({} closed), {} events ({} dropped)",
        export.spans.spans().len(),
        export.spans.closed_count(),
        export.tracer.len(),
        export.tracer.dropped()
    );

    write_trace(out, provenance::chrome_trace(&export).render_pretty())
}

/// The `--parallel` mode: multi-track task/scheduler trace.
fn parallel(args: &Args) -> ExitCode {
    let scale = args.scale();
    let wname = args.value("--workload").unwrap_or("moss");
    let tasks = args.parsed("--tasks").unwrap_or(4);
    let seed = args.parsed("--det-seed").unwrap_or(critpath::DET_SEED);
    let default_out = format!("target/experiments/trace_par_{wname}_t{tasks}.json");
    let out = args.value("--out").unwrap_or(&default_out);
    let run = critpath::collect(wname, tasks, "lea", &RunConfig::lea(), scale, seed);
    let run = run.unwrap_or_else(|e| args.fail(&e));
    let events: usize = run.reports.iter().map(|r| r.sched.events.len()).sum();
    let dropped: u64 = run.reports.iter().map(|r| r.sched.dropped).sum();
    println!(
        "{} ×{}: {} tasks, {} scheduler events ({} dropped), work {} / span {} cycles",
        run.workload,
        run.tasks,
        run.reports.len(),
        events,
        dropped,
        run.cp.work,
        run.cp.span
    );
    write_trace(out, critpath::multi_track_trace(&run).render_pretty())
}

fn write_trace(out: &str, json: String) -> ExitCode {
    if let Err(code) = rc_bench::write_output("trace-export", out, &json) {
        return code;
    }
    println!("trace written to {out} (load in https://ui.perfetto.dev)");
    ExitCode::SUCCESS
}
