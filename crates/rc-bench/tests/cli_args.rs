//! A bad command line is a usage error: `rc-bench` prints a message on
//! stderr and exits 2 before doing any work, instead of silently running a
//! different experiment (at the default scale, say, or without writing its
//! report). A value option with a missing or bad value, an option the
//! command does not take, a positional it does not expect, and a missing
//! or unknown command are all bad. An output directory that does not exist
//! yet is created.

use std::process::Command;

const RC_BENCH: &str = env!("CARGO_BIN_EXE_rc-bench");

#[test]
fn a_bad_argument_exits_2_before_any_work() {
    let cases: &[(&[&str], &str)] = &[
        (&["fault-matrix", "--scale", "1", "--out"], "--out"),
        (&["fault-matrix", "--scale", "one"], "--scale"),
        (&["fault-matrix", "--out", "--scale", "1"], "--out"),
        (&["recovery-matrix", "--scale", "1", "--out"], "--out"),
        (&["parallel-matrix", "--scale", "1", "--out"], "--out"),
        (&["critpath", "--scale", "1", "--workload"], "--workload"),
        (&["critpath", "--scale", "eight"], "--scale"),
        (&["experiments", "--scale", "1", "--trace"], "--trace"),
        (&["inspect", "top", "snap.json", "--limit", "ten"], "--limit"),
        // Options the command does not take, and stray positionals.
        (&["critpath", "--det-seeed", "9"], "--det-seeed"),
        (&["experiments", "--scale", "1", "--sampel"], "--sampel"),
        (&["inspect", "top", "snap.json", "--limt", "3"], "--limt"),
        (&["fault-matrix", "--scale", "1", "extra"], "extra"),
        (&["inspect", "summary", "a.json", "b.json"], "b.json"),
        // Each trace-export mode refuses the other's options.
        (&["trace-export", "--parallel", "--config", "qs"], "--config"),
        (&["trace-export", "--scale", "1", "--tasks", "4"], "--tasks"),
        // No command, and an unknown one.
        (&[], "usage: rc-bench <command>"),
        (&["frobnicate", "--scale", "1"], "frobnicate"),
    ];
    // Run in an empty directory: a command that went ahead would write
    // its report or EXPERIMENTS.md here.
    let dir = std::env::temp_dir().join(format!("rc-bench-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, flag) in cases {
        let out = Command::new(RC_BENCH).args(*args).current_dir(&dir).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rc-bench {args:?}: {stderr}");
        assert!(stderr.contains(flag), "rc-bench {args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "rc-bench {args:?} did work before failing");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "rc-bench {args:?} wrote a file");
    }
    std::fs::remove_dir(&dir).unwrap();
}

/// An output path creates its directory: `--dump-pair DIR` creates `DIR`,
/// and `ablations --trace` the trace file's, as every `--out` does.
#[test]
fn an_output_path_creates_its_directory() {
    let cases: &[(&[&str], &str, &[&str])] = &[
        (
            &["recovery-matrix", "--scale", "1", "--dump-pair"],
            "a/b",
            &["a/b/recovery_trap.json", "a/b/recovery_exit.json"],
        ),
        (&["ablations", "--scale", "1", "--trace"], "c/d/ev.jsonl", &["c/d/ev.jsonl"]),
    ];
    let root = std::env::temp_dir().join(format!("rc-bench-out-dirs-{}", std::process::id()));
    for (args, path, files) in cases {
        let out = Command::new(RC_BENCH).args(*args).arg(root.join(path)).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "rc-bench {args:?} {path}: {stderr}");
        for name in *files {
            assert!(root.join(name).is_file(), "rc-bench {args:?} {path}: {name} missing");
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}
