//! `rc-bench`, the evaluation harness's one command.
//!
//! ```text
//! rc-bench <command> [options]
//! ```
//!
//! The first argument picks the command: `experiments`, `ablations`,
//! `fault-matrix`, `recovery-matrix`, `parallel-matrix`, `critpath`,
//! `trace-export` or `inspect`. The rest are its options, in any order
//! among its positionals. An option the command does not take, or a
//! positional it does not expect, exits 2 before any work. Each command's
//! module gives its options, outputs and exit codes: 0 when its gate
//! passes, 1 on a violation, 2 on bad arguments or I/O errors. With no
//! command, or an unknown one, `rc-bench` prints its usage and exits 2.

use std::process::ExitCode;

mod cmd {
    pub mod ablations;
    pub mod critpath;
    pub mod experiments;
    pub mod inspect;
    pub mod matrices;
    pub mod trace_export;
}

/// A subcommand: its arguments after its name in, its exit code out.
type Command = fn(Vec<String>) -> ExitCode;

/// The subcommands, by name.
const COMMANDS: [(&str, Command); 8] = [
    ("experiments", cmd::experiments::main),
    ("ablations", cmd::ablations::main),
    ("fault-matrix", cmd::matrices::fault),
    ("recovery-matrix", cmd::matrices::recovery),
    ("parallel-matrix", cmd::matrices::parallel),
    ("critpath", cmd::critpath::main),
    ("trace-export", cmd::trace_export::main),
    ("inspect", cmd::inspect::main),
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    if let Some((_, run)) = COMMANDS.iter().find(|(name, _)| *name == command) {
        return run(args.collect());
    }
    if !command.is_empty() {
        eprintln!("rc-bench: unknown command {command:?}");
    }
    let names: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: rc-bench <command> [options], where <command> is one of\n  {}",
        names.join(" ")
    );
    ExitCode::from(2)
}
