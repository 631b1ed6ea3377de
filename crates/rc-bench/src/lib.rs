#![warn(missing_docs)]

//! # rc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the reimplemented system, through one command, `rc-bench`, whose
//! first argument picks the artifact:
//!
//! | Artifact | Generator |
//! |---|---|
//! | Tables 1–3 and Figures 7–9 → `EXPERIMENTS.md`, `target/experiments/<name>.json` | `cargo run -p rc-bench -- experiments` |
//! | Design-choice ablations             | `cargo run -p rc-bench -- ablations` |
//! | Fault-injection torture matrix      | `cargo run -p rc-bench -- fault-matrix` |
//! | Checkpoint-recovery matrix          | `cargo run -p rc-bench -- recovery-matrix` |
//! | Parallel spawn/join matrix          | `cargo run -p rc-bench -- parallel-matrix` |
//! | Critical-path attribution           | `cargo run -p rc-bench -- critpath` |
//! | Perfetto provenance trace           | `cargo run -p rc-bench -- trace-export` |
//! | Heap snapshot dump + analysis       | `cargo run -p rc-bench -- inspect` |
//!
//! Each command reads its options through [`Args`], which refuses an
//! option the command does not take, and writes its files through
//! [`write_output`]. The commands live in the binary target, so the crates
//! that use this library (`rc-fuzz`, `bench/`) do not compile them.
//!
//! The fault, recovery and parallel matrices share one driver,
//! [`matrix`]: one gated report type, one cell runner that turns a
//! panicking cell into a violation, and one ending for their commands.
//! Each matrix module keeps only its scenarios, configurations, cell
//! constructor, contract checks and the first lines of its summary.
//!
//! Runtime-operation wall-clock benchmarks live in `benches/runtime_ops.rs`
//! (run with `cargo bench -p rc-bench`), on the dependency-free harness in
//! [`microbench`]; `bench/` (rc-perf) times whole workloads. Every output
//! above that is byte-deterministic is pinned by `tools/pins.sh`. Passing
//! `--profile` to `experiments` or `ablations` adds a telemetry section
//! (per-site hot spots, region flamegraph); `--trace <path>` exports the
//! raw event stream as JSON Lines. See `docs/OBSERVABILITY.md`.

mod chrome;
pub mod critpath;
pub mod faultmatrix;
pub mod fuzzreport;
pub mod inspect;
pub mod matrix;
pub mod microbench;
pub mod parallelmatrix;
pub mod provenance;
pub mod recoverymatrix;
pub mod report;
pub mod schema;
pub mod trajectory;

use std::path::Path;
use std::process::ExitCode;

use rc_workloads::Scale;

/// One command line, read against the options its command accepts.
///
/// Options may come in any order among the positionals. An option the
/// command does not list, a positional beyond the ones it takes, a valued
/// option followed by nothing or by another `--option`, or a value that
/// does not parse is a usage error: the process prints
/// `<program>: <message>` on stderr and exits 2. Commands read their
/// options before doing any work, so a typo never silently runs a
/// different experiment.
#[derive(Debug, Default)]
pub struct Args {
    program: String,
    /// `(option, value)` in command-line order; a flag has no value.
    options: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Reads `args` (the command line after the program and command
    /// names): `flags` are bare options, `valued` take the next argument
    /// as their value, and at most `positionals` other arguments are
    /// kept. `program` prefixes every usage error.
    pub fn parse(
        program: &str,
        args: impl IntoIterator<Item = String>,
        flags: &[&str],
        valued: &[&str],
        positionals: usize,
    ) -> Args {
        let mut out = Args { program: program.to_string(), ..Args::default() };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            if valued.contains(&a.as_str()) {
                let v = args.next().filter(|v| !v.starts_with("--"));
                let v = v.unwrap_or_else(|| out.fail(&format!("{a} wants a value")));
                out.options.push((a, Some(v)));
            } else if flags.contains(&a.as_str()) {
                out.options.push((a, None));
            } else if a.starts_with("--") {
                out.fail(&format!("unknown option {a:?}"));
            } else if out.positionals.len() < positionals {
                out.positionals.push(a);
            } else {
                out.fail(&format!("unexpected argument {a:?}"));
            }
        }
        out
    }

    /// Whether the bare option `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(o, _)| o == name)
    }

    /// The value of the option `name`, if it was given (the first, if it
    /// was given twice).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.options.iter().find(|(o, _)| o == name)?.1.as_deref()
    }

    /// [`Args::value`], parsed; a value that does not parse is a usage
    /// error.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        let t = v.parse().ok();
        Some(t.unwrap_or_else(|| self.fail(&format!("bad value {v:?} for {name}"))))
    }

    /// `--scale N`, defaulting to [`Scale::SMALL`].
    pub fn scale(&self) -> Scale {
        self.parsed("--scale").map(Scale).unwrap_or(Scale::SMALL)
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Ends the process as a usage error: prints `<program>: <msg>` on
    /// stderr and exits 2. Commands call it too, for an argument they
    /// cannot use, such as an unknown workload name.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.program);
        std::process::exit(2)
    }
}

/// Writes a command's output file, creating its directory first. On an
/// error, prints `program: path: error` on stderr and gives the exit code
/// 2 to return.
pub fn write_output(program: &str, path: &str, text: &str) -> Result<(), ExitCode> {
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, text)).map_err(|e| {
        eprintln!("{program}: {path}: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str, positionals: usize) -> Args {
        let args = line.split_whitespace().map(String::from);
        Args::parse("test", args, &["--json"], &["--scale", "--out"], positionals)
    }

    #[test]
    fn options_come_in_any_order_among_the_positionals() {
        let a = parse("a.json --scale 3 b.json --json --out x --scale 9", 2);
        assert_eq!(a.positionals(), ["a.json", "b.json"]);
        assert!(a.flag("--json"));
        assert_eq!(a.value("--out"), Some("x"));
        // The first of two values wins.
        assert_eq!(a.scale().0, 3);
    }

    #[test]
    fn absent_options_read_as_their_defaults() {
        let a = parse("", 1);
        assert!(a.positionals().is_empty());
        assert!(!a.flag("--json"));
        assert_eq!(a.value("--out"), None);
        assert_eq!(a.parsed::<u32>("--scale"), None);
        assert_eq!(a.scale().0, Scale::SMALL.0);
    }
}
