//! `rc-perf`: one wall-clock benchmark for the RC pipeline — compile,
//! execute, observe and schedule — measured end to end and layer by
//! layer from outside the program, through its public API only.
//!
//! ```text
//! rc-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! rc-perf all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! rc-perf compare <parent results…> -- <change results…>
//! ```
//!
//! `run` prints every metric with its unit and, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; it also
//! writes an `rc-perf-result/v1` document to `--out`. `all` runs every
//! workload in its own child process, one after another. See
//! `bench/README.md`.

mod compare;
mod cpu;
mod frontend;
mod harness;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, Stdio};

use region_rt::Json;

use crate::harness::Options;

const USAGE: &str = "usage:
  rc-perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  rc-perf all [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  rc-perf compare <parent results…> -- <change results…>
workloads: paper-exec, paper-observed, fuzz-oracle, spawn-sched";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..], true).map_or_else(usage_error, |o| run(&o)),
        Some("all") => parse(&args[1..], false).map_or_else(usage_error, |o| all(&o)),
        Some("compare") => compare::main(&args[1..]),
        _ => usage_error(String::new()),
    };
    std::process::exit(code);
}

fn usage_error(e: String) -> i32 {
    if !e.is_empty() {
        eprintln!("rc-perf: {e}");
    }
    eprintln!("{USAGE}");
    2
}

fn parse(args: &[String], needs_workload: bool) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 1,
        seconds: metrics::spec().run_seconds,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/rc-perf"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if needs_workload => o.workload = value.clone(),
            "--seed" => o.seed = number()?,
            "--seconds" => o.seconds = number()?,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if needs_workload && o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

/// One workload in this process.
fn run(o: &Options) -> i32 {
    let report = match workloads::run(o) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rc-perf: {}: {e}", o.workload);
            return 1;
        }
    };
    print!("{}", report.text);
    let kind = if o.trace {
        ".traced"
    } else if o.smoke {
        ".smoke"
    } else {
        ""
    };
    let path = o
        .out
        .join(format!("{}.seed{}{kind}.json", o.workload, o.seed));
    let mut doc = report.result.render_pretty();
    doc.push('\n');
    if let Err(e) = harness::write(&path, &doc) {
        eprintln!("rc-perf: {e}");
        return 1;
    }
    println!("result written to {}", path.display());
    let last = Json::obj(vec![
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::U(report.attempted)),
        ("failed", Json::U(report.failed)),
        ("metrics", report.metrics),
    ]);
    println!("{}", last.render());
    i32::from(report.failed > 0)
}

/// Every workload, each in its own child process, one after another.
fn all(o: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rc-perf: cannot find my own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    let mut columns: Vec<(&str, Json)> = Vec::new();
    for name in workloads::NAMES {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args([
                "--seed",
                &o.seed.to_string(),
                "--seconds",
                &o.seconds.to_string(),
            ])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&o.out)
            .stderr(Stdio::inherit());
        if o.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("rc-perf: {name}: {e}");
                code = 1;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            eprintln!("rc-perf: {name} exited with {}", out.status);
            code = 1;
        }
        let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        if let Some(m) = last.as_ref().and_then(|j| j.get("metrics")) {
            columns.push((name, m.clone()));
        }
    }
    print!("{}", matrix(&columns));
    code
}

/// Every metric by workload, one row per metric.
fn matrix(columns: &[(&str, Json)]) -> String {
    let Some((_, Json::O(first))) = columns.first() else {
        return String::new();
    };
    let mut out = format!("\n{:<36} {:<8}", "metric", "unit");
    for (name, _) in columns {
        out.push_str(&format!(" {name:>16}"));
    }
    out.push('\n');
    for (metric, entry) in first {
        let unit = entry.get("unit").and_then(Json::as_str).unwrap_or("");
        out.push_str(&format!("{metric:<36} {unit:<8}"));
        for (_, m) in columns {
            let v = m
                .get(metric)
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64);
            out.push_str(&format!(" {:>16.4}", v.unwrap_or(f64::NAN)));
        }
        out.push('\n');
    }
    out
}
