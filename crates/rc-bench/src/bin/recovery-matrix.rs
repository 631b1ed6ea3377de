//! Runs the checkpoint-recovery matrix and gates on the recovery
//! contract.
//!
//! Usage: `cargo run -p rc-bench --bin recovery-matrix -- [--scale N]
//! [--out RECOVERYMATRIX_rc.json] [--dump-pair DIR]`.
//!
//! Sweeps the Figure 7 workloads under the `lea`/`GC`/`nq`/`qs`/`inf`
//! configurations × every recovery scenario (clean baseline, scheduled
//! injections, page-budget squeezes), each supervised by its paired
//! recovery policy: trap → checkpoint → restore-validate → next rung →
//! re-execute. Prints a summary, writes the byte-deterministic JSON
//! report when `--out` is given, and exits 0 when the gate passes (no
//! panics, every checkpoint restorable, post-recovery audits clean,
//! recoverable scenarios completed, unrecoverable ones exhausted in
//! order), 1 on a violation, 2 on bad arguments or I/O errors.
//!
//! `--dump-pair DIR` instead replays one budget-squeeze recovery on
//! `moss/qs` and writes the pre-unwind trap snapshot
//! (`recovery_trap.json`) and the recovered retry's exit snapshot
//! (`recovery_exit.json`) for `rc-inspect diff` — `tools/pins.sh` greps
//! the diff for non-empty site attribution.

use std::process::ExitCode;

use rc_bench::recoverymatrix;
use rc_lang::{run_audited, CheckMode, Outcome, RunConfig};
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;
use region_rt::SnapshotReason;

fn main() -> ExitCode {
    let scale = rc_bench::scale_from_args();
    let out = rc_bench::value_from_args("--out");
    if let Some(dir) = rc_bench::value_from_args("--dump-pair") {
        return dump_pair(&dir, scale);
    }
    let report = recoverymatrix::collect(scale);
    report.finish("recovery-matrix", &report.summary(), out.as_deref())
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

    let r = run_audited(&c, &squeezed);
    if !matches!(r.outcome, Outcome::Trapped(_)) {
        eprintln!("recovery-matrix: squeezed run did not trap ({:?})", r.outcome);
        return ExitCode::from(1);
    }
    let Some(trap) = r.snapshots.last().filter(|s| s.reason == SnapshotReason::Trap) else {
        eprintln!("recovery-matrix: trapped run carried no trap snapshot");
        return ExitCode::from(1);
    };
    let mut trap = trap.clone();
    trap.label = "moss/qs+budget4".to_string();

    let lifted = squeezed.with_page_budget(0);
    let r = run_audited(&c, &lifted);
    if !r.outcome.is_exit() {
        eprintln!("recovery-matrix: lifted retry did not complete ({:?})", r.outcome);
        return ExitCode::from(1);
    }
    let Some(exit) = r.snapshots.last().filter(|s| s.reason == SnapshotReason::Exit) else {
        eprintln!("recovery-matrix: completed retry carried no exit snapshot");
        return ExitCode::from(1);
    };
    let mut exit = exit.clone();
    exit.label = "moss/qs".to_string();

    for (name, snap) in [("recovery_trap.json", &trap), ("recovery_exit.json", &exit)] {
        let path = format!("{dir}/{name}");
        if let Err(e) = std::fs::write(&path, snap.render()) {
            eprintln!("recovery-matrix: {path}: {e}");
            return ExitCode::from(2);
        }
        println!("snapshot written to {path}");
    }
    ExitCode::SUCCESS
}
