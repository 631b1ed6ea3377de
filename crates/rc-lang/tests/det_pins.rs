//! Pins the deterministic scheduler's schedules.
//!
//! Five small programs cover what the scheduler decides: two spawns and
//! one `join`; a nested spawn on a subregion beside a sibling task; a
//! child whose `assert` fails; a task and `main` that end with children
//! still running (the implicit joins); and two joins in a row. Each runs
//! under `Deterministic` at five seeds, under `rc_inf()`, its sampled form
//! and `lea()`. Every run becomes one line: outcome, audit, task count and
//! an FNV-1a digest of the rendered task reports (the scheduler logs with
//! their slice events), `Stats`, steps and cycles.
//!
//! At two of the seeds every step limit from 1 to the run's steps + 1 is
//! swept too, folded into one line per program, config and seed: the step
//! cap is per task, so these runs stop a task at every slice boundary and
//! pin where the cap falls relative to a pass of the turn.
//!
//! The lines must equal `testdata/det_pins.txt`.

use rc_lang::interp::{prepare, run_audited, Compiled, Outcome, RunResult};
use rc_lang::RunConfig;

const TWO_SPAWNS: &str = "
struct cell { int v; struct cell *sameregion next; };
int main() deletes {
    region a = newregion();
    region b = newregion();
    int n = 5;
    spawn a {
        struct cell *head = null;
        int i;
        for (i = 0; i < n; i = i + 1) {
            struct cell *c = ralloc(a, struct cell);
            c->v = i;
            c->next = head;
            head = c;
        }
    }
    spawn b {
        int k;
        int s = 0;
        for (k = 0; k < n; k = k + 1) { s = s + k; }
        struct cell *p = ralloc(b, struct cell);
        p->v = s;
    }
    int j;
    for (j = 0; j < 8; j = j + 1) { n = n + 1; }
    join;
    deleteregion(a);
    deleteregion(b);
    return n;
}
";

const NESTED: &str = "
struct t { int x; struct t *sameregion next; };
int main() deletes {
    region outer = newregion();
    region side = newregion();
    int n = 4;
    spawn outer {
        struct t *p = ralloc(outer, struct t);
        region inner = newsubregion(outer);
        spawn inner {
            int i;
            for (i = 0; i < n; i = i + 1) {
                struct t *q = ralloc(inner, struct t);
                q->x = i;
            }
        }
        int k;
        for (k = 0; k < n; k = k + 1) { p->x = p->x + k; }
        join;
        p->x = p->x + 1;
    }
    spawn side {
        int j;
        struct t *h = null;
        for (j = 0; j < n; j = j + 1) {
            struct t *c = ralloc(side, struct t);
            c->next = h;
            h = c;
        }
    }
    join;
    deleteregion(outer);
    deleteregion(side);
    return n;
}
";

const CHILD_ASSERT: &str = "
struct t { int x; };
int main() {
    region r = newregion();
    region s = newregion();
    int n = 3;
    spawn r {
        int i;
        for (i = 0; i < 3; i = i + 1) {
            struct t *p = ralloc(r, struct t);
            p->x = i;
        }
        assert(n > 5);
    }
    spawn s {
        int k;
        for (k = 0; k < 8; k = k + 1) {
            struct t *q = ralloc(s, struct t);
            q->x = k;
        }
    }
    int j;
    for (j = 0; j < 5; j = j + 1) { n = n + 1; }
    join;
    return n;
}
";

const IMPLICIT_JOINS: &str = "
struct t { int x; };
int main() {
    region a = newregion();
    region b = newregion();
    int n = 5;
    spawn a {
        region c = newsubregion(a);
        spawn c {
            int i;
            for (i = 0; i < n; i = i + 1) {
                struct t *p = ralloc(c, struct t);
                p->x = i;
            }
        }
        struct t *q = ralloc(a, struct t);
        q->x = n;
    }
    spawn b {
        int k;
        for (k = 0; k < n; k = k + 1) {
            struct t *w = ralloc(b, struct t);
            w->x = k;
        }
    }
    return n;
}
";

const TWO_JOINS: &str = "
struct t { int x; };
int main() deletes {
    region a = newregion();
    region b = newregion();
    int n = 3;
    spawn a {
        region c = newsubregion(a);
        spawn c {
            int i;
            for (i = 0; i < n; i = i + 1) {
                struct t *p = ralloc(c, struct t);
                p->x = i;
            }
        }
        join;
        join;
        int k;
        for (k = 0; k < n; k = k + 1) {
            struct t *q = ralloc(a, struct t);
            q->x = k;
        }
    }
    spawn b {
        int j;
        for (j = 0; j < 3 * n; j = j + 1) {
            struct t *w = ralloc(b, struct t);
            w->x = j;
        }
    }
    join;
    join;
    deleteregion(a);
    deleteregion(b);
    return n;
}
";

fn programs() -> [(&'static str, &'static str); 5] {
    [
        ("two-spawns", TWO_SPAWNS),
        ("nested", NESTED),
        ("child-assert", CHILD_ASSERT),
        ("implicit-joins", IMPLICIT_JOINS),
        ("two-joins", TWO_JOINS),
    ]
}

fn configs() -> [(&'static str, RunConfig); 3] {
    [
        ("rc-inf", RunConfig::rc_inf()),
        ("rc-inf-sampled", RunConfig::rc_inf().sampled()),
        ("lea", RunConfig::lea()),
    ]
}

const SEEDS: [u64; 5] = [1, 7, 9, 42, 1_732_584_193];

/// The seeds whose step limits are swept.
const SWEPT: [u64; 2] = [7, 1_732_584_193];

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn outcome_key(o: &Outcome) -> String {
    match o {
        Outcome::Exit(code) => format!("exit:{code}"),
        Outcome::Aborted(e) => format!("abort:{}", e.kind_name()),
        Outcome::Trapped(e) => format!("trap:{}", e.kind_name()),
        Outcome::AssertFailed => "assert-failed".to_string(),
        Outcome::StepLimit => "step-limit".to_string(),
        Outcome::StackOverflow => "stack-overflow".to_string(),
    }
}

fn audit_key(r: &RunResult) -> &'static str {
    match &r.audit {
        Some(Ok(())) => "clean",
        Some(Err(_)) => "dirty",
        None => "none",
    }
}

/// The digest of what a run reports: every task report, the merged
/// `Stats`, steps and cycles.
fn digest(r: &RunResult) -> u64 {
    let mut text =
        format!("{}\n{}\n{} {}\n", r.stats, r.stats.to_json().render(), r.steps, r.cycles);
    for t in &r.task_reports {
        text.push_str(&t.to_json().render());
        text.push('\n');
    }
    fnv1a(FNV_BASIS, text.as_bytes())
}

/// One run's line body: outcome, audit, task count and digest.
fn key(r: &RunResult) -> String {
    format!(
        "{} {} tasks={} {:016x}",
        outcome_key(&r.outcome),
        audit_key(r),
        r.task_reports.len(),
        digest(r)
    )
}

fn run(c: &Compiled, cfg: &RunConfig, seed: u64, limit: u64) -> RunResult {
    let mut cfg = cfg.clone().det_sched(seed);
    cfg.step_limit = limit;
    run_audited(c, &cfg)
}

fn sweep() -> String {
    let mut out = String::new();
    for (pname, src) in programs() {
        let c = prepare(src).expect("the pinned program compiles");
        for (cname, cfg) in configs() {
            for seed in SEEDS {
                let r = run(&c, &cfg, seed, 0);
                out.push_str(&format!("{pname} {cname} seed={seed} {}\n", key(&r)));
            }
            for seed in SWEPT {
                let steps = run(&c, &cfg, seed, 0).steps;
                let mut h = FNV_BASIS;
                let mut stopped = 0;
                for limit in 1..=steps + 1 {
                    let r = run(&c, &cfg, seed, limit);
                    stopped += u64::from(r.outcome == Outcome::StepLimit);
                    h = fnv1a(h, format!("{limit} {}\n", key(&r)).as_bytes());
                }
                out.push_str(&format!(
                    "{pname} {cname} seed={seed} limits=1..={} step-limit={stopped} {h:016x}\n",
                    steps + 1
                ));
            }
        }
    }
    out
}

#[test]
fn det_schedules_are_pinned() {
    let got = sweep();
    let want = include_str!("../testdata/det_pins.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("det_pins.txt");
        std::fs::write(&path, &got).expect("writing the actual lines");
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "det pins differ at line {} (got {:?}, want {:?}); the full output is in {}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first),
            path.display()
        );
    }
}
