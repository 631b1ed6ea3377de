//! Pins how a fault unwinds the interpreter's frames.
//!
//! One program holds local arrays in nested calls, calls a `deletes`
//! helper while pointer locals are live (so their regions are pinned),
//! recurses three deep and spawns one task. Each fault plane is armed,
//! sticky, at every operation ordinal in turn until it stops firing, under
//! `rc(Qs)` and `lea`, each plain and trapping, with snapshots on. Every
//! run becomes one line: plane, ordinal, config, outcome, audit and an
//! FNV-1a digest of the rendered `Stats`, fault report and snapshots.
//! The lines must equal `testdata/unwind_pins.txt`.
//!
//! The Figure 7 programs the fault matrix sweeps declare no local array,
//! so a frame that leaked its stack arrays, or released its caller's
//! pins in the wrong order, on the way out of a fault would change no
//! output there; it changes a digest here.

use rc_lang::interp::{prepare, run_audited, Outcome, RunResult};
use rc_lang::{CheckMode, RunConfig};
use region_rt::{FaultMode, FaultPlan};

const PROGRAM: &str = "\
struct node { int v; struct node *sameregion next; struct node *parentptr up; };
struct node *keep;

static int fill(region r, int n) {
    int buf[4];
    struct node *head = null;
    int i;
    for (i = 0; i < 4; i = i + 1) { buf[i] = n + i; }
    for (i = 0; i < n; i = i + 1) {
        struct node *c = ralloc(r, struct node);
        c->v = buf[i % 4];
        c->next = head;
        head = c;
    }
    return head->v + buf[3];
}

static int scratch(region s) deletes {
    struct node *tmp[2];
    tmp[0] = ralloc(s, struct node);
    tmp[1] = tmp[0];
    tmp[0]->v = 5;
    int v = tmp[1]->v;
    tmp[0] = null;
    tmp[1] = null;
    deleteregion(s);
    return v;
}

static int rec(region r, int d) {
    int a[3];
    a[0] = d;
    struct node *p = ralloc(r, struct node);
    p->v = d;
    if (d == 0) { return fill(r, 3); }
    return rec(r, d - 1) + a[0] + p->v;
}

int main() deletes {
    region r = newregion();
    region sub = newsubregion(r);
    region t = newregion();
    region s = newregion();
    struct node *live = ralloc(r, struct node);
    struct node *kid = ralloc(sub, struct node);
    kid->up = live;
    live->v = rec(r, 3);
    int m = 3;
    spawn t {
        int k;
        struct node *q = null;
        for (k = 0; k < m; k = k + 1) {
            struct node *c = ralloc(t, struct node);
            c->v = k;
            c->next = q;
            q = c;
        }
    }
    int done = scratch(s);
    join;
    keep = kid;
    int total = live->v + kid->up->v + keep->v + done;
    keep = null;
    kid = null;
    live = null;
    deleteregion(sub);
    deleteregion(t);
    deleteregion(r);
    return total;
}
";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn audit_key(r: &RunResult) -> &'static str {
    match &r.audit {
        Some(Ok(())) => "clean",
        Some(Err(_)) => "dirty",
        None => "none",
    }
}

/// The digest of everything a run reports about the heap it left.
fn digest(r: &RunResult) -> u64 {
    let mut text = format!("{}\n{}\n{}\n", r.stats, r.stats.to_json().render(), r.steps);
    match &r.faults {
        Some(f) => text.push_str(&f.to_json().render()),
        None => text.push_str("no-faults"),
    }
    text.push('\n');
    for s in &r.snapshots {
        text.push_str(&s.render());
    }
    fnv1a(text.as_bytes())
}

type Arm = fn(FaultMode) -> FaultPlan;

fn planes() -> [(&'static str, Arm); 4] {
    [
        ("alloc", |m| FaultPlan::new().fail_alloc(m).sticky()),
        ("page_acquire", |m| FaultPlan::new().fail_page_acquire(m).sticky()),
        ("rc_saturate", |m| FaultPlan::new().saturate_rc(m).sticky()),
        ("check_fail", |m| FaultPlan::new().fail_checks(m).sticky()),
    ]
}

fn configs() -> [(&'static str, RunConfig); 4] {
    [
        ("rc-qs", RunConfig::rc(CheckMode::Qs).with_snapshots()),
        ("rc-qs-trap", RunConfig::rc(CheckMode::Qs).trapping().with_snapshots()),
        ("lea", RunConfig::lea().with_snapshots()),
        ("lea-trap", RunConfig::lea().trapping().with_snapshots()),
    ]
}

/// Ordinals past this mean the sweep never stopped firing.
const MAX_ORDINAL: u64 = 2_000;

fn sweep() -> String {
    let c = prepare(PROGRAM).expect("the pinned program compiles");
    let mut out = String::new();
    for (cname, base) in configs() {
        let clean = run_audited(&c, &base);
        assert_eq!(clean.outcome, Outcome::Exit(51), "{cname}: the unfaulted run exits");
        assert_eq!(audit_key(&clean), "clean", "{cname}");
        out.push_str(&format!(
            "none 0 {cname} {} {} {:016x}\n",
            clean.outcome.key(),
            audit_key(&clean),
            digest(&clean)
        ));
        for (pname, arm) in planes() {
            for ordinal in 1..=MAX_ORDINAL {
                let cfg = base.clone().with_faults(arm(FaultMode::Schedule(vec![ordinal])));
                let r = run_audited(&c, &cfg);
                out.push_str(&format!(
                    "{pname} {ordinal} {cname} {} {} {:016x}\n",
                    r.outcome.key(),
                    audit_key(&r),
                    digest(&r)
                ));
                // Past the plane's last operation the run is the clean
                // one again, and so is every later ordinal.
                let fired = r.faults.as_ref().map_or(0, |f| f.total_injected());
                if fired == 0 && r.outcome == clean.outcome {
                    break;
                }
                assert!(ordinal < MAX_ORDINAL, "{pname} {cname}: the plane never stopped firing");
            }
        }
    }
    out
}

#[test]
fn fault_unwinding_is_pinned() {
    let got = sweep();
    let want = include_str!("../testdata/unwind_pins.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unwind_pins.txt");
        std::fs::write(&path, &got).expect("writing the actual lines");
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "unwind pins differ at line {} (got {:?}, want {:?}); the full output is in {}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first),
            path.display()
        );
    }
}
