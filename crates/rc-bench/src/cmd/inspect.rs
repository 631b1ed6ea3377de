//! `rc-bench inspect`: the offline heap-snapshot analyzer.
//!
//! Usage:
//!
//! ```text
//! rc-bench inspect dump --workload cfrac --config gc [--scale N] --out PATH
//! rc-bench inspect summary PATH
//! rc-bench inspect top PATH [--limit N]
//! rc-bench inspect leaks PATH [--limit N]
//! rc-bench inspect diff PATH_A PATH_B [--limit N]
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

use rc_bench::{inspect, Args};
use rc_lang::RunConfig;

const USAGE: &str = "\
usage: rc-bench inspect <command>
  dump --workload NAME --config cat|lea|gc|norc|nq|qs|inf|nc [--scale N] --out PATH
  summary PATH
  top PATH [--limit N]
  leaks PATH [--limit N]
  diff PATH_A PATH_B [--limit N]";

fn config_by_name(name: &str) -> Option<RunConfig> {
    let allocators = [
        ("cat", RunConfig::cat()),
        ("lea", RunConfig::lea()),
        ("gc", RunConfig::gc()),
        ("norc", RunConfig::norc()),
    ];
    allocators.into_iter().chain(RunConfig::figure8()).find(|(n, _)| *n == name).map(|(_, c)| c)
}

fn load_file(path: &str) -> Result<region_rt::HeapSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    inspect::load(&text).map_err(|e| format!("{path}: {e}"))
}

fn dump(args: impl Iterator<Item = String>) -> Result<(), String> {
    let args =
        Args::parse("inspect", args, &[], &["--workload", "--config", "--scale", "--out"], 0);
    let wname = args.value("--workload").ok_or("dump needs --workload")?;
    let cname = args.value("--config").ok_or("dump needs --config")?;
    let out = args.value("--out").ok_or("dump needs --out")?;
    let scale = args.scale();
    let workload =
        rc_workloads::by_name(wname).ok_or_else(|| format!("unknown workload {wname:?}"))?;
    let config = config_by_name(cname).ok_or_else(|| format!("unknown config {cname:?}"))?;
    let snap = inspect::dump(&workload, cname, &config, scale)?;
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, snap.render()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{} — reason {}, {} live words, {} pages → {out}",
        snap.label,
        snap.reason.as_str(),
        snap.total_live_words(),
        snap.pages.len()
    );
    Ok(())
}

/// `summary`, `top` and `leaks` read one snapshot, `diff` two.
fn query(cmd: &str, args: impl Iterator<Item = String>) -> Result<(), String> {
    let paths = if cmd == "diff" { 2 } else { 1 };
    let args = Args::parse("inspect", args, &[], &["--limit"], paths);
    let limit = args.parsed("--limit").unwrap_or(20);
    if args.positionals().len() < paths {
        return Err(format!("{cmd} needs {paths} snapshot path(s)\n{USAGE}"));
    }
    let snaps: Vec<_> =
        args.positionals().iter().map(|p| load_file(p)).collect::<Result<_, _>>()?;
    print!(
        "{}",
        match cmd {
            "summary" => inspect::summary(&snaps[0]),
            "top" => inspect::top(&snaps[0], limit),
            "leaks" => inspect::leaks(&snaps[0], limit),
            _ => inspect::diff(&snaps[0], &snaps[1], limit),
        }
    );
    Ok(())
}

pub fn main(args: Vec<String>) -> ExitCode {
    let mut args = args.into_iter();
    let cmd = args.next().unwrap_or_default();
    let result = match cmd.as_str() {
        "dump" => dump(args),
        "summary" | "top" | "leaks" | "diff" => query(&cmd, args),
        "" => Err(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("inspect: {e}");
            ExitCode::from(2)
        }
    }
}
