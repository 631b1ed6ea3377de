//! Pins the runs whose instructions the lowering fuses.
//!
//! Three programs fault inside a fused instruction: a null `p->f` read
//! stored into a local, a null `p->next` dereferenced by
//! `p->next->v = …`, and a read, stored into a local, through a pointer
//! into a region that `norc` deleted. Two more have jumps that land right
//! after a fusable pair: `if (a && b)`, `while (i < n && p != null)` and
//! nested loops. Each runs under `rc(Qs)`, `lea` and `norc`, each plain and
//! trapping, and becomes three lines:
//!
//! - `run`: outcome, steps, cycles and an FNV-1a digest of the rendered
//!   `Stats`;
//! - `sampled`: the same run sampled every other step, with the digest
//!   covering the timeline too, so every sample's tick, cycle and source
//!   line is pinned;
//! - `capped`: every step limit from 1 to the run's steps + 1, folded into
//!   one digest of each run's outcome, steps, cycles and `Stats`, so the
//!   step cap falls at every step of every instruction.
//!
//! The lines must equal `testdata/fused_pins.txt`, which was generated
//! before any instruction was fused: fusion moves no step, cycle, sample
//! or abort point.

use rc_lang::interp::{prepare, run_audited, Compiled, RunResult};
use rc_lang::{CheckMode, RunConfig};

const NULL_FIELD_TO_LOCAL: &str = "
struct node { int v; struct node *sameregion next; };
int main() deletes {
    region r = newregion();
    struct node *p = ralloc(r, struct node);
    struct node *q = ralloc(r, struct node);
    p->v = 4;
    p->next = q;
    q->v = 9;
    int x = p->v;
    int y = q->v;
    int i;
    for (i = 0; i < 3; i = i + 1) { x = x + q->v; }
    q = p->next;
    x = x + q->v;
    p = q->next;
    y = p->v;
    return x + y;
}
";

const NULL_NEXT_STORE: &str = "
struct node { int v; struct node *sameregion next; };
int main() deletes {
    region r = newregion();
    struct node *p = ralloc(r, struct node);
    p->next = ralloc(r, struct node);
    int i;
    for (i = 0; i < 3; i = i + 1) {
        p->next->v = p->next->v + i;
    }
    int s = p->next->v;
    p->next = null;
    p->next->v = s;
    return s;
}
";

const DELETED_READ: &str = "
struct node { int v; struct node *sameregion next; };
int main() deletes {
    region r = newregion();
    struct node *p = ralloc(r, struct node);
    p->v = 7;
    int x = p->v;
    x = x * 2;
    deleteregion(r);
    x = x + 1;
    int y = p->v;
    return x + y;
}
";

const AND_CONDITIONS: &str = "
struct node { int v; struct node *sameregion next; };
int main() deletes {
    region r = newregion();
    struct node *head = null;
    int n = 5;
    int i;
    for (i = 0; i < n; i = i + 1) {
        struct node *c = ralloc(r, struct node);
        c->v = i * 3;
        c->next = head;
        head = c;
    }
    int a = 1;
    int b = 0;
    int hits = 0;
    struct node *p = head;
    i = 0;
    while (i < n && p != null) {
        if (a && b) { hits = hits + 100; }
        if (p->v > 4 && i < 4) { hits = hits + 1; }
        b = p->v % 2;
        i = i + 1;
        p = p->next;
    }
    head = null;
    p = null;
    deleteregion(r);
    return hits;
}
";

const NESTED_LOOPS: &str = "
int main() {
    int n = 4;
    int total = 0;
    int i = 0;
    while (i < n) {
        int j = 0;
        while (j <= i) {
            int k;
            for (k = 0; k < j; k = k + 1) {
                if (k % 2 == 0) { total = total + k; } else { total = total - 1; }
            }
            j = j + 1;
        }
        if (total > 3 && i != 2) { total = total + 10; }
        i = i + 1;
    }
    return total;
}
";

fn programs() -> [(&'static str, &'static str); 5] {
    [
        ("null-field-to-local", NULL_FIELD_TO_LOCAL),
        ("null-next-store", NULL_NEXT_STORE),
        ("deleted-read", DELETED_READ),
        ("and-conditions", AND_CONDITIONS),
        ("nested-loops", NESTED_LOOPS),
    ]
}

fn configs() -> [(&'static str, RunConfig); 6] {
    [
        ("rc-qs", RunConfig::rc(CheckMode::Qs)),
        ("rc-qs-trap", RunConfig::rc(CheckMode::Qs).trapping()),
        ("lea", RunConfig::lea()),
        ("lea-trap", RunConfig::lea().trapping()),
        ("norc", RunConfig::norc()),
        ("norc-trap", RunConfig::norc().trapping()),
    ]
}

/// 64-bit FNV-1a, continuing from `h`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Outcome, steps, cycles and the rendered `Stats` of a run.
fn summary(r: &RunResult) -> String {
    format!(
        "{} {} {}\n{}\n{}\n",
        r.outcome.key(),
        r.steps,
        r.cycles,
        r.stats,
        r.stats.to_json().render()
    )
}

fn line(kind: &str, prog: &str, cfg: &str, r: &RunResult, digest: u64) -> String {
    format!(
        "{kind} {prog} {cfg} {} steps={} cycles={} {digest:016x}\n",
        r.outcome.key(),
        r.steps,
        r.cycles
    )
}

fn pin(c: &Compiled, prog: &str, cname: &str, base: &RunConfig, out: &mut String) {
    let r = run_audited(c, base);
    assert!(
        !matches!(r.audit, Some(Err(_))) || !r.outcome.is_exit(),
        "{prog} {cname}: a clean exit leaves an audit-clean heap"
    );
    out.push_str(&line("run", prog, cname, &r, fnv1a_from(FNV_OFFSET, summary(&r).as_bytes())));

    let s = run_audited(c, &base.clone().with_sampling(2, 1 << 20));
    let mut text = summary(&s);
    if let Some(t) = &s.timeline {
        text.push_str(&t.to_json().render());
    }
    out.push_str(&line("sampled", prog, cname, &s, fnv1a_from(FNV_OFFSET, text.as_bytes())));

    let mut h = FNV_OFFSET;
    for limit in 1..=r.steps + 1 {
        let mut cfg = base.clone();
        cfg.step_limit = limit;
        h = fnv1a_from(h, summary(&run_audited(c, &cfg)).as_bytes());
    }
    out.push_str(&format!("capped {prog} {cname} limits=1..={} {h:016x}\n", r.steps + 1));
}

fn sweep() -> String {
    let mut out = String::new();
    for (prog, src) in programs() {
        let c = prepare(src).expect("the pinned program compiles");
        for (cname, base) in configs() {
            pin(&c, prog, cname, &base, &mut out);
        }
    }
    out
}

#[test]
fn fused_instructions_are_pinned() {
    let got = sweep();
    let want = include_str!("../testdata/fused_pins.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fused_pins.txt");
        std::fs::write(&path, &got).expect("writing the actual lines");
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "fused pins differ at line {} (got {:?}, want {:?}); the full output is in {}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first),
            path.display()
        );
    }
}
