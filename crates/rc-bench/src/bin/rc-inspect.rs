//! Offline heap-snapshot analyzer.
//!
//! Usage:
//!
//! ```text
//! rc-inspect dump --workload cfrac --config gc [--scale N] --out PATH
//! rc-inspect summary PATH
//! rc-inspect top PATH [--limit N]
//! rc-inspect leaks PATH [--limit N]
//! rc-inspect diff PATH_A PATH_B [--limit N]
//! ```
//!
//! `dump` runs a workload with snapshots enabled and writes the final
//! (exit or trap) snapshot, byte-deterministically. The query commands
//! load `rc-bench-snapshot/v1` documents from disk; `diff` prints
//! per-region and per-site retained-word deltas of the second snapshot
//! against the first (the gc-vs-lea retention gap, attributed to source
//! lines). Exits 0 on success, 2 on bad arguments, unknown schemas, or
//! I/O errors; `diff` is informational and never fails on differences.

use std::process::ExitCode;

use rc_bench::inspect;
use rc_lang::{CheckMode, RunConfig};

const USAGE: &str = "\
usage: rc-inspect <command>
  dump --workload NAME --config cat|lea|gc|norc|nq|qs|inf|nc [--scale N] --out PATH
  summary PATH
  top PATH [--limit N]
  leaks PATH [--limit N]
  diff PATH_A PATH_B [--limit N]";

fn config_by_name(name: &str) -> Option<RunConfig> {
    Some(match name {
        "cat" => RunConfig::cat(),
        "lea" => RunConfig::lea(),
        "gc" => RunConfig::gc(),
        "norc" => RunConfig::norc(),
        "nq" => RunConfig::rc(CheckMode::Nq),
        "qs" => RunConfig::rc(CheckMode::Qs),
        "inf" => RunConfig::rc_inf(),
        "nc" => RunConfig::rc(CheckMode::Nc),
        _ => return None,
    })
}

fn load_file(path: &str) -> Result<region_rt::HeapSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    inspect::load(&text).map_err(|e| format!("{path}: {e}"))
}

fn limit_from_args() -> usize {
    rc_bench::parsed_from_args("--limit").unwrap_or(20)
}

/// The first positional (non `--flag value`) arguments after the
/// subcommand.
fn positionals() -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(2).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

fn cmd_dump() -> Result<(), String> {
    let wname = rc_bench::value_from_args("--workload").ok_or("dump needs --workload")?;
    let cname = rc_bench::value_from_args("--config").ok_or("dump needs --config")?;
    let out = rc_bench::value_from_args("--out").ok_or("dump needs --out")?;
    let scale = rc_bench::scale_from_args();
    let workload =
        rc_workloads::by_name(&wname).ok_or_else(|| format!("unknown workload {wname:?}"))?;
    let config = config_by_name(&cname).ok_or_else(|| format!("unknown config {cname:?}"))?;
    let snap = inspect::dump(&workload, &cname, &config, scale)?;
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, snap.render()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{} — reason {}, {} live words, {} pages → {out}",
        snap.label,
        snap.reason.as_str(),
        snap.total_live_words(),
        snap.pages.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let cmd = match std::env::args().nth(1) {
        Some(c) => c,
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "dump" => cmd_dump(),
        "summary" | "top" | "leaks" => {
            let limit = limit_from_args();
            let pos = positionals();
            match pos.first() {
                None => Err(format!("{cmd} needs a snapshot path\n{USAGE}")),
                Some(path) => load_file(path).map(|s| {
                    print!(
                        "{}",
                        match cmd.as_str() {
                            "summary" => inspect::summary(&s),
                            "top" => inspect::top(&s, limit),
                            _ => inspect::leaks(&s, limit),
                        }
                    );
                }),
            }
        }
        "diff" => {
            let limit = limit_from_args();
            let pos = positionals();
            match (pos.first(), pos.get(1)) {
                (Some(a), Some(b)) => load_file(a).and_then(|sa| {
                    load_file(b).map(|sb| {
                        print!("{}", inspect::diff(&sa, &sb, limit));
                    })
                }),
                _ => Err(format!("diff needs two snapshot paths\n{USAGE}")),
            }
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rc-inspect: {e}");
            ExitCode::from(2)
        }
    }
}
