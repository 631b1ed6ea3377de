//! The interpreter keeps RC calls and inline tasks off the host stack,
//! and caps call depth across tasks.
//!
//! Every program here runs on a host thread with a 512 KiB stack: 3,000
//! RC frames, a chain of 2,000 inline tasks, and a task started from
//! 1,992 frames deep. An interpreter that nested host frames per RC frame
//! or per inline task would overflow that stack and abort the test
//! process. A task counts its frames on from the frame that spawned it,
//! so a chain of tasks that recurses ends like plain recursion, under
//! every scheduler.

use rc_lang::interp::{prepare, run, run_audited, Outcome, RunResult};
use rc_lang::RunConfig;

/// Runs `f` on a thread with a 512 KiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    let t = std::thread::Builder::new().stack_size(512 * 1024).spawn(f).expect("spawn");
    t.join().expect("the small-stack thread finished");
}

fn audited(src: &str, cfg: &RunConfig) -> RunResult {
    let c = prepare(src).expect("compiles");
    let r = run_audited(&c, cfg);
    assert!(matches!(r.audit, Some(Ok(()))), "{:?}: {:?}", r.outcome, r.audit);
    r
}

const DOWN: &str = r#"
    int down(int n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
    int main() { return down(3000); }
"#;

const ARRAYS: &str = r#"
    int f(int n) {
        int a[4];
        a[0] = n;
        if (n == 0) { return 0; }
        return f(n - 1) + a[0];
    }
    int main() { return f(2500); }
"#;

/// Recursion through `spawn`: each level's task calls the next level.
const SPAWN_CHAIN: &str = r#"
    int f(int n) deletes {
        region r = newregion();
        spawn r { if (n > 0) { f(n - 1); } }
        join;
        deleteregion(r);
        return 0;
    }
    int main() deletes { return f(60000); }
"#;

/// One spawn from 1,992 frames deep whose body recurses 21 frames.
const DEEP_SPAWN: &str = r#"
    int down(int n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
    int deep(int n) deletes {
        if (n > 0) { return deep(n - 1); }
        region r = newregion();
        spawn r { down(20); }
        join;
        deleteregion(r);
        return 5;
    }
    int main() deletes { return deep(1990); }
"#;

#[test]
fn deep_recursion_fits_a_small_host_stack() {
    on_small_stack(|| {
        for cfg in [RunConfig::default(), RunConfig::default().trapping()] {
            assert_eq!(audited(DOWN, &cfg).outcome, Outcome::StackOverflow);
        }
        let shallow = prepare(&DOWN.replace("3000", "1000")).expect("compiles");
        assert_eq!(run(&shallow, &RunConfig::default()).outcome, Outcome::Exit(1000));
        let r = audited(ARRAYS, &RunConfig::rc_inf());
        assert_eq!(r.outcome, Outcome::StackOverflow);
        assert_eq!(r.stats.live_words, 2);
    });
}

#[test]
fn recursion_through_spawn_is_a_stack_overflow() {
    on_small_stack(|| {
        let r = audited(SPAWN_CHAIN, &RunConfig::rc_inf());
        assert_eq!(r.outcome, Outcome::StackOverflow);
        // One task per level below `main`'s frame, up to the 2,000-frame cap.
        assert_eq!(r.handoffs.len(), 1_999);
        let shallow = audited(&SPAWN_CHAIN.replace("60000", "30"), &RunConfig::rc_inf());
        assert_eq!(shallow.outcome, Outcome::Exit(0));
        assert_eq!(shallow.handoffs.len(), 31);
    });
}

#[test]
fn a_task_starts_at_its_spawners_depth_under_every_scheduler() {
    on_small_stack(|| {
        for (name, cfg) in [
            ("inline", RunConfig::rc_inf()),
            ("det", RunConfig::rc_inf().det_sched(3)),
            ("threads-2", RunConfig::rc_inf().threaded(2)),
        ] {
            let r = audited(DEEP_SPAWN, &cfg);
            assert_eq!(r.outcome, Outcome::StackOverflow, "sched {name}");
            assert_eq!(r.handoffs.len(), 1, "sched {name}");
            let shallow = audited(&DEEP_SPAWN.replace("1990", "1970"), &cfg);
            assert_eq!(shallow.outcome, Outcome::Exit(5), "sched {name}");
        }
    });
}
