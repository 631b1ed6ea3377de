//! Exports one workload run as a Perfetto-loadable trace.
//!
//! Usage: `cargo run -p rc-bench --bin trace-export -- [--workload cfrac]
//! [--config nq|qs|inf|nc] [--scale N] [--out PATH]`, or, for a parallel
//! run, `-- --parallel [--workload moss] [--tasks 4] [--det-seed N]
//! [--scale N] [--out PATH]`.
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

use rc_bench::{critpath, provenance};
use rc_lang::RunConfig;

fn main() -> ExitCode {
    if rc_bench::flag_from_args("--parallel") {
        return parallel();
    }
    let scale = rc_bench::scale_from_args();
    let wname = rc_bench::value_from_args("--workload").unwrap_or_else(|| "cfrac".to_string());
    let cname = rc_bench::value_from_args("--config").unwrap_or_else(|| "qs".to_string());
    let out = rc_bench::value_from_args("--out")
        .unwrap_or_else(|| format!("target/experiments/trace_{wname}_{cname}.json"));

    let Some(workload) = rc_workloads::by_name(&wname) else {
        eprintln!("trace-export: unknown workload {wname:?}");
        return ExitCode::from(2);
    };
    let Some((_, config)) = RunConfig::figure8().into_iter().find(|(n, _)| *n == cname) else {
        eprintln!("trace-export: unknown config {cname:?} (want nq|qs|inf|nc)");
        return ExitCode::from(2);
    };

    let export = provenance::collect(&workload, &cname, &config, scale);

    print!("{}", provenance::coverage_markdown(&export));
    println!(
        "\n{} spans ({} closed), {} events ({} dropped)",
        export.spans.spans().len(),
        export.spans.closed_count(),
        export.tracer.len(),
        export.tracer.dropped()
    );

    write_trace(&out, provenance::chrome_trace(&export).render_pretty())
}

/// The `--parallel` mode: multi-track task/scheduler trace.
fn parallel() -> ExitCode {
    let scale = rc_bench::scale_from_args();
    let wname = rc_bench::value_from_args("--workload").unwrap_or_else(|| "moss".to_string());
    let tasks = rc_bench::parsed_from_args("--tasks").unwrap_or(4);
    let seed = rc_bench::parsed_from_args("--det-seed").unwrap_or(critpath::DET_SEED);
    let out = rc_bench::value_from_args("--out")
        .unwrap_or_else(|| format!("target/experiments/trace_par_{wname}_t{tasks}.json"));
    let run = match critpath::collect(&wname, tasks, "lea", &RunConfig::lea(), scale, seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace-export: {e}");
            return ExitCode::from(2);
        }
    };
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
    write_trace(&out, critpath::multi_track_trace(&run).render_pretty())
}

fn write_trace(out: &str, json: String) -> ExitCode {
    if let Err(code) = rc_bench::write_output("trace-export", out, &json) {
        return code;
    }
    println!("trace written to {out} (load in https://ui.perfetto.dev)");
    ExitCode::SUCCESS
}
