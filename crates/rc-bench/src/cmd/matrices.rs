//! The three gated matrices: `rc-bench fault-matrix`, `rc-bench
//! recovery-matrix` and `rc-bench parallel-matrix`.
//!
//! Each prints its summary, writes its byte-deterministic JSON report when
//! `--out` is given (virtual clock only — `tools/pins.sh` pins it), and
//! exits 0 when its gate passes, 1 on a violation, 2 on bad arguments or
//! I/O errors.

use std::process::ExitCode;

use rc_bench::{faultmatrix, parallelmatrix, recoverymatrix, Args};
use rc_lang::{run_audited, CheckMode, RunConfig};
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;
use region_rt::{HeapSnapshot, SnapshotReason};

/// `rc-bench fault-matrix [--scale N] [--out FAULTMATRIX_rc.json]`.
///
/// Sweeps the Figure 7 workloads under every allocator configuration ×
/// every fault scenario (scheduled injections per plane plus page-budget
/// squeezes) with trap-and-unwind recovery on. The gate: no panics,
/// post-fault audits clean, allocator configs agreeing on OOM landings.
pub fn fault(args: Vec<String>) -> ExitCode {
    let args = Args::parse("fault-matrix", args, &[], &["--scale", "--out"], 0);
    let report = faultmatrix::collect(args.scale());
    report.finish("fault-matrix", &report.summary(), args.value("--out"))
}

/// `rc-bench recovery-matrix [--scale N] [--out RECOVERYMATRIX_rc.json]
/// [--dump-pair DIR]`.
///
/// Sweeps the Figure 7 workloads under the `lea`/`GC`/`nq`/`qs`/`inf`
/// configurations × every recovery scenario (clean baseline, scheduled
/// injections, page-budget squeezes), each supervised by its paired
/// recovery policy: trap → checkpoint → restore-validate → next rung →
/// re-execute. The gate: no panics, every checkpoint restorable,
/// post-recovery audits clean, recoverable scenarios completed,
/// unrecoverable ones exhausted in order.
///
/// `--dump-pair DIR` instead replays one budget-squeeze recovery on
/// `moss/qs` and writes the pre-unwind trap snapshot
/// (`recovery_trap.json`) and the recovered retry's exit snapshot
/// (`recovery_exit.json`) for `rc-bench inspect diff` — `tools/pins.sh`
/// greps the diff for non-empty site attribution.
pub fn recovery(args: Vec<String>) -> ExitCode {
    let args = Args::parse("recovery-matrix", args, &[], &["--scale", "--out", "--dump-pair"], 0);
    if let Some(dir) = args.value("--dump-pair") {
        return dump_pair(dir, args.scale());
    }
    let report = recoverymatrix::collect(args.scale());
    report.finish("recovery-matrix", &report.summary(), args.value("--out"))
}

/// Replays the budget-squeeze recovery story on `moss/qs` — the
/// squeezed first attempt traps, the budget-lifted retry (the policy's
/// final escalation rung) completes — and writes both checkpoints.
fn dump_pair(dir: &str, scale: Scale) -> ExitCode {
    let Some(w) = rc_workloads::by_name("moss") else {
        eprintln!("recovery-matrix: workload moss not registered");
        return ExitCode::from(2);
    };
    let c = prepare_workload(&w, scale);
    let squeezed = RunConfig::rc(CheckMode::Qs).trapping().with_snapshots().with_page_budget(4);
    let attempts = [
        ("recovery_trap.json", "moss/qs+budget4", squeezed.clone(), SnapshotReason::Trap),
        ("recovery_exit.json", "moss/qs", squeezed.with_page_budget(0), SnapshotReason::Exit),
    ];
    let mut snaps = Vec::new();
    for (name, label, cfg, reason) in attempts {
        let r = run_audited(&c, &cfg);
        let Some(snap) = r.snapshots.last().filter(|s| s.reason == reason) else {
            let reason = reason.as_str();
            eprintln!(
                "recovery-matrix: {label} ended {:?}, not with a {reason} snapshot",
                r.outcome
            );
            return ExitCode::from(1);
        };
        snaps.push((name, HeapSnapshot { label: label.to_string(), ..snap.clone() }));
    }
    for (name, snap) in snaps {
        let path = format!("{dir}/{name}");
        if let Err(code) = rc_bench::write_output("recovery-matrix", &path, &snap.render()) {
            return code;
        }
        println!("snapshot written to {path}");
    }
    ExitCode::SUCCESS
}

/// `rc-bench parallel-matrix [--scale N] [--out PARALLELMATRIX_rc.json]
/// [--speedup]`.
///
/// Sweeps the spawn/join variants of the Figure 7 workloads across
/// 1/2/4/8 tasks × `lea`/`GC`/`qs`, running every cell both sequentially
/// and under the seeded deterministic scheduler. The gate: every cell
/// outcome-equivalent, audit-clean and report-identical across
/// schedulers.
///
/// `--speedup` instead measures real-thread wall-clock scaling (1 vs 4
/// workers on each workload's 4-task variant) and requires a ≥2×
/// speedup on at least one workload (exit 1 otherwise). On machines
/// reporting fewer than 4 hardware threads the probe is skipped with
/// exit 0: no scaling is physically possible there, and wall-clock never
/// gates determinism. A workload the probe cannot measure (no variant, a
/// compile error, a run that does not exit) exits 2.
pub fn parallel(args: Vec<String>) -> ExitCode {
    let args = Args::parse("parallel-matrix", args, &["--speedup"], &["--scale", "--out"], 0);
    if args.flag("--speedup") {
        return speedup(args.scale());
    }
    let report = parallelmatrix::collect(args.scale());
    report.finish("parallel-matrix", &report.summary(), args.value("--out"))
}

fn speedup(scale: Scale) -> ExitCode {
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    if cores < 4 {
        println!(
            "parallel-matrix: speedup probe skipped ({cores} hardware thread(s) < 4); \
             scheduler equivalence is gated by the deterministic matrix instead"
        );
        return ExitCode::SUCCESS;
    }
    let names: Vec<&str> = rc_workloads::all().iter().map(|w| w.name).collect();
    let probes = match parallelmatrix::speedup_probe(scale, &names) {
        Ok(probes) => probes,
        Err(e) => {
            eprintln!("parallel-matrix: speedup probe: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &probes {
        println!(
            "{:>8}: 1 worker {:8.2} ms, 4 workers {:8.2} ms — {:.2}x",
            p.workload,
            p.one_ms,
            p.four_ms,
            p.factor()
        );
    }
    // The best scaling; a tie keeps the earlier workload.
    match probes.iter().reduce(|b, p| if p.factor() > b.factor() { p } else { b }) {
        Some(b) if b.factor() >= 2.0 => {
            println!("best scaling: {} at {:.2}x — speedup gate: PASS", b.workload, b.factor());
            ExitCode::SUCCESS
        }
        Some(b) => {
            eprintln!("speedup gate: FAIL — best was {} at {:.2}x (< 2x)", b.workload, b.factor());
            ExitCode::from(1)
        }
        None => {
            eprintln!("speedup gate: FAIL — no workload produced a measurement");
            ExitCode::from(1)
        }
    }
}
