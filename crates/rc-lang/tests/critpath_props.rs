//! Critical-path properties under seeded schedules.
//!
//! The work/span analyzer ([`region_rt::critpath_analyze`]) consumes
//! only *structural* scheduler events (task start/end, spawn, join
//! waits), so its verdict must not depend on the baton seed at all —
//! and the per-task reports it consumes must be an exact decomposition
//! of the merged run. 48 SplitMix64-derived baton seeds each drive
//! [`rc_lang::RunConfig::det_sched`] over a fixed spawn/join program
//! (straight tasks plus a nested spawn), checking per seed:
//!
//! - **work identity** — `work` equals Σ per-task cycles *and* the
//!   merged virtual clock (telemetry is an exact shard merge);
//! - **span bounds** — `0 < span ≤ work`, the path decomposes it
//!   exactly (`Σ link lengths == span`, so `work − span ==
//!   overlapped`), and the root executes the path's first link;
//! - **timeline fold** — the per-task timelines merge to byte-identical
//!   JSON with the run's merged timeline;
//! - **reproducibility** — the same seed twice yields byte-identical
//!   per-task report JSON and critical-path JSON.
//!
//! Work, span and the path itself must also be *identical across all 48
//! seeds*: the spawn tree is fixed by program order, not by timing.

use rc_lang::{prepare, run_audited, Outcome, RunConfig};
use region_rt::{critpath_analyze, Json};

/// Two straight tasks plus a task that spawns a nested child: enough
/// tree shape for the path to have real fork/join structure.
const PROGRAM: &str = "
struct node { int v; struct node *sameregion next; };

int main() deletes {
    region a = newregion();
    region b = newregion();
    region c = newregion();
    spawn a {
        struct node *h = null;
        int q;
        for (q = 0; q < 16; q = q + 1) {
            struct node *m = ralloc(a, struct node);
            m->v = q;
            m->next = h;
            h = m;
        }
        if (h != null) { assert(h->v == 15); }
    }
    spawn b {
        region b2 = newregion();
        spawn b2 {
            struct node *y = ralloc(b2, struct node);
            y->v = 5;
            assert(y->v == 5);
        }
        join;
        deleteregion(b2);
    }
    spawn c {
        int w = 0;
        int q;
        for (q = 0; q < 9; q = q + 1) { w = w + q; }
        assert(w == 36);
    }
    join;
    deleteregion(c);
    deleteregion(b);
    deleteregion(a);
    return 3;
}
";

/// Sebastiano Vigna's SplitMix64 — the standard seed sequencer, so the
/// 48 baton seeds are well-scattered rather than consecutive integers.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Serializes a run's task reports (the byte-reproducibility unit).
fn reports_json(r: &rc_lang::RunResult) -> String {
    Json::A(r.task_reports.iter().map(|t| t.to_json()).collect()).render()
}

#[test]
fn work_span_identities_hold_under_48_seeds() {
    let compiled = prepare(PROGRAM).expect("compiles");
    let mut state = 0x0c17_9a7e_57a7_e5ee_u64;
    let mut first: Option<(u64, u64, String)> = None;
    for i in 0..48 {
        let seed = splitmix64(&mut state);
        let cfg = RunConfig::rc_inf().det_sched(seed).sampled();
        let r = run_audited(&compiled, &cfg);
        assert!(matches!(r.outcome, Outcome::Exit(3)), "seed {seed:#x}: outcome {:?}", r.outcome);
        assert_eq!(r.audit, Some(Ok(())), "seed {seed:#x}: audit");
        assert_eq!(r.task_reports.len(), 5, "seed {seed:#x}: root + 4 tasks");

        let cp =
            critpath_analyze(&r.task_reports).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));

        // Work identity: Σ per-task cycles, and the merged clock — the
        // shard merge is exact, not an approximation.
        let task_sum: u64 = r.task_reports.iter().map(|t| t.cycles).sum();
        assert_eq!(cp.work, task_sum, "seed {seed:#x}: work vs Σ task cycles");
        assert_eq!(cp.work, r.cycles, "seed {seed:#x}: work vs merged clock");

        // Span bounds and exact path decomposition.
        assert!(cp.span > 0, "seed {seed:#x}: empty span");
        assert!(cp.span <= cp.work, "seed {seed:#x}: span {} > work {}", cp.span, cp.work);
        let link_sum: u64 = cp.path.iter().map(|s| s.len()).sum();
        assert_eq!(link_sum, cp.span, "seed {seed:#x}: path does not decompose the span");
        assert_eq!(cp.span + cp.overlapped(), cp.work, "seed {seed:#x}");
        assert_eq!(
            cp.path.first().map(|s| s.task),
            Some(region_rt::ShardId::ROOT),
            "seed {seed:#x}: the path must start at the root"
        );
        let bd_sum: u64 = cp.tasks.iter().map(|t| t.on_path_cycles).sum();
        assert_eq!(bd_sum, cp.span, "seed {seed:#x}: per-task on-path shares");

        // Timeline fold: per-task samplers merge to the run's merged
        // timeline, byte-for-byte.
        let merged = r.timeline.as_ref().expect("sampling was on");
        let mut folded: Option<Box<region_rt::Timeline>> = None;
        for t in &r.task_reports {
            let tl = t.timeline.as_ref().expect("every task samples");
            match &mut folded {
                Some(acc) => acc.merge(tl),
                None => folded = Some(tl.clone()),
            }
        }
        let folded = folded.expect("at least the root task");
        assert_eq!(
            folded.to_json().render(),
            merged.to_json().render(),
            "seed {seed:#x}: timeline fold"
        );

        // The decomposition is schedule-invariant: every seed sees the
        // same work, span and path.
        let path = Json::A(cp.path.iter().map(|s| s.to_json()).collect()).render();
        match &first {
            None => first = Some((cp.work, cp.span, path)),
            Some((w, s, p)) => {
                assert_eq!(cp.work, *w, "seed {seed:#x} (schedule {i}): work drifted");
                assert_eq!(cp.span, *s, "seed {seed:#x} (schedule {i}): span drifted");
                assert_eq!(&path, p, "seed {seed:#x} (schedule {i}): path drifted");
            }
        }
    }
}

#[test]
fn per_seed_reports_and_paths_are_byte_reproducible() {
    let compiled = prepare(PROGRAM).expect("compiles");
    let mut state = 0xbeef_ca4e_0000_0010_u64;
    for _ in 0..8 {
        let seed = splitmix64(&mut state);
        let cfg = RunConfig::rc_inf().det_sched(seed);
        let a = run_audited(&compiled, &cfg);
        let b = run_audited(&compiled, &cfg);
        assert_eq!(reports_json(&a), reports_json(&b), "seed {seed:#x}: task reports");
        let cpa = critpath_analyze(&a.task_reports).unwrap();
        let cpb = critpath_analyze(&b.task_reports).unwrap();
        assert_eq!(cpa.to_json().render(), cpb.to_json().render(), "seed {seed:#x}: critical path");
    }
}
