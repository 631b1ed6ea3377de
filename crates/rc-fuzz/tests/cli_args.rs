//! A bad command line is a usage error: `rc-fuzz` prints a message on
//! stderr and exits 2 before doing any work, instead of silently running a
//! campaign with the default in its place. A value option with a missing
//! or bad value, an option `rc-fuzz` does not take, and a positional
//! argument are all bad.

use std::process::Command;

#[test]
fn a_bad_argument_exits_2_before_any_work() {
    let cases: &[(&[&str], &str)] = &[
        (&["--seeds", "two", "--no-write"], "--seeds"),
        (&["--regressions", ".", "--dump", "x"], "--dump"),
        (&["--regressions", ".", "--seeds", "1", "--size", "big"], "--size"),
        (&["--regressions", ".", "--seeds", "1", "--budget-steps", "lots"], "--budget-steps"),
        (&["--seeds", "1", "--no-write", "--dump"], "--dump"),
        (&["--seeds", "1", "--regressions", "--no-write"], "--regressions"),
        // An option rc-fuzz does not take, and a stray positional.
        (&["--seeds", "1", "--no-write", "--dumpp", "7"], "--dumpp"),
        (&["--seeds", "1", "--no-write", "extra"], "extra"),
    ];
    // Run in an empty directory, which `--regressions .` names: a run that
    // went ahead and shrank a failing seed would write its repro here.
    let dir = std::env::temp_dir().join(format!("rc-fuzz-cli-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_rc-fuzz"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rc-fuzz {args:?}: {stderr}");
        assert!(stderr.contains(flag), "rc-fuzz {args:?} must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "rc-fuzz {args:?} did work before failing");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "rc-fuzz {args:?} wrote a file");
    }
    std::fs::remove_dir(&dir).unwrap();
}
