//! A value flag with a missing or bad value is a usage error: the binary
//! prints a message on stderr and exits 2 before doing any work, instead
//! of silently running a different experiment (at the default scale, say,
//! or without writing its report). An output directory that does not
//! exist yet is created.

use std::process::Command;

#[test]
fn a_missing_or_bad_value_exits_2_before_any_work() {
    let cases: &[(&str, &[&str], &str)] = &[
        (env!("CARGO_BIN_EXE_fault-matrix"), &["--scale", "1", "--out"], "--out"),
        (env!("CARGO_BIN_EXE_fault-matrix"), &["--scale", "one"], "--scale"),
        (env!("CARGO_BIN_EXE_fault-matrix"), &["--out", "--scale", "1"], "--out"),
        (env!("CARGO_BIN_EXE_recovery-matrix"), &["--scale", "1", "--out"], "--out"),
        (env!("CARGO_BIN_EXE_parallel-matrix"), &["--scale", "1", "--out"], "--out"),
        (env!("CARGO_BIN_EXE_critpath"), &["--scale", "1", "--workload"], "--workload"),
        (env!("CARGO_BIN_EXE_critpath"), &["--scale", "eight"], "--scale"),
        (env!("CARGO_BIN_EXE_experiments"), &["--scale", "1", "--trace"], "--trace"),
        (env!("CARGO_BIN_EXE_rc-inspect"), &["top", "snap.json", "--limit", "ten"], "--limit"),
    ];
    // Run in an empty directory: a binary that went ahead would write
    // its report or EXPERIMENTS.md here.
    let dir = std::env::temp_dir().join(format!("rc-bench-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(*args).current_dir(&dir).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = bin.rsplit('/').next().unwrap_or(bin);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{name} {args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?} did work before failing");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{name} {args:?} wrote a file");
    }
    std::fs::remove_dir(&dir).unwrap();
}

/// `--dump-pair DIR` creates `DIR`, as every `--out` does.
#[test]
fn dump_pair_creates_its_directory() {
    let root = std::env::temp_dir().join(format!("rc-bench-dump-pair-{}", std::process::id()));
    let dir = root.join("a/b");
    let out = Command::new(env!("CARGO_BIN_EXE_recovery-matrix"))
        .args(["--scale", "1", "--dump-pair"])
        .arg(&dir)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    for name in ["recovery_trap.json", "recovery_exit.json"] {
        assert!(dir.join(name).is_file(), "{name} missing");
    }
    std::fs::remove_dir_all(&root).unwrap();
}
