//! The four workloads. Each is one client in a closed loop: the next job
//! starts when the previous one has finished and passed its gate.

mod fuzz_oracle;
mod paper_exec;
mod paper_observed;
mod spawn_sched;

use crate::harness::{execute, layer_sample, Options, Report, Tally};
use crate::metrics::Values;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 4] = ["paper-exec", "paper-observed", "fuzz-oracle", "spawn-sched"];

/// Runs the named workload.
///
/// # Errors
///
/// An unknown name, or a setup or probe failure.
pub fn run(o: &Options) -> Result<Report, String> {
    match o.workload.as_str() {
        "paper-exec" => execute(&paper_exec::PaperExec, o),
        "paper-observed" => execute(&paper_observed::PaperObserved, o),
        "fuzz-oracle" => execute(&fuzz_oracle::FuzzOracle, o),
        "spawn-sched" => execute(&spawn_sched::SpawnSched, o),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            NAMES.join(", ")
        )),
    }
}

/// The per-layer metrics of every workload but `o.workload`, each from
/// one traced pass of that workload: a traced run reports every layer
/// measured, not only the layers its own jobs reach.
///
/// # Errors
///
/// A setup or probe failure of one of those workloads.
pub fn other_layers(o: &Options, tally: &mut Tally) -> Result<Values, String> {
    let mut m = Values::new();
    for name in NAMES.into_iter().filter(|&n| n != o.workload) {
        match name {
            "paper-exec" => layer_sample(&paper_exec::PaperExec, o.seed, tally, &mut m),
            "paper-observed" => layer_sample(&paper_observed::PaperObserved, o.seed, tally, &mut m),
            "fuzz-oracle" => layer_sample(&fuzz_oracle::FuzzOracle, o.seed, tally, &mut m),
            "spawn-sched" => layer_sample(&spawn_sched::SpawnSched, o.seed, tally, &mut m),
            _ => unreachable!("NAMES lists only these workloads"),
        }?;
    }
    Ok(m)
}

/// The eight Figure 7 programs at `Scale::SMALL`, compiled.
fn paper_programs(
    sp: &mut crate::spans::Spans,
) -> Result<Vec<(&'static str, rc_lang::Compiled)>, String> {
    rc_workloads::all()
        .into_iter()
        .map(|w| {
            let src = (w.source)(rc_workloads::Scale::SMALL);
            let c = crate::frontend::prepare(&src, sp).map_err(|e| format!("{}: {e}", w.name))?;
            Ok((w.name, c))
        })
        .collect()
}
