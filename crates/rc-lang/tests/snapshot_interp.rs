//! End-to-end heap snapshots through the interpreter: every capture point
//! (exit, GC pause, trap) must produce a self-consistent snapshot whose
//! totals agree with the run's `Stats`, byte-for-byte deterministically.

use rc_lang::interp::{prepare, run, Outcome};
use rc_lang::RunConfig;
use region_rt::{FaultMode, FaultPlan, HeapSnapshot, Json, SnapshotReason};

const FIG1: &str = "\
struct finfo { int sz; };
struct rlist {
    struct rlist *sameregion next;
    struct finfo *sameregion data;
};
int main() deletes {
    struct rlist *rl;
    struct rlist *last = null;
    region r = newregion();
    int i; int total = 0;
    for (i = 0; i < 50; i = i + 1) {
        rl = ralloc(r, struct rlist);
        rl->data = ralloc(r, struct finfo);
        rl->data->sz = i;
        rl->next = last;
        last = rl;
    }
    while (last != null) {
        total = total + last->data->sz;
        last = last->next;
    }
    deleteregion(r);
    return total;
}
";

/// Keeps a region alive to exit so the snapshot has live words to show.
const LEAKY: &str = "\
struct cell { int v; };
int main() {
    region r = newregion();
    struct cell *c = ralloc(r, struct cell);
    c->v = 7;
    return c->v;
}
";

#[test]
fn exit_snapshot_matches_stats_and_round_trips() {
    let c = prepare(LEAKY).unwrap();
    let r = run(&c, &RunConfig::rc_inf().with_spans().with_snapshots());
    assert_eq!(r.outcome, Outcome::Exit(7));
    assert_eq!(r.snapshots.len(), 1, "one exit snapshot");
    let snap = &r.snapshots[0];
    assert_eq!(snap.reason, SnapshotReason::Exit);
    assert_eq!(snap.stats, r.stats);
    assert_eq!(snap.total_live_words(), r.stats.live_words);
    assert!(snap.region_live_words() > 0, "the leaked region shows up");
    // The ralloc on line 4 owns the leaked cell.
    assert!(
        snap.sites.iter().any(|s| s.site == 4 && s.words > 0),
        "leak attributed to line 4: {:?}",
        snap.sites
    );
    let doc = Json::parse(&snap.render()).unwrap();
    assert_eq!(&HeapSnapshot::from_json(&doc).unwrap(), snap);
}

#[test]
fn snapshots_are_byte_deterministic_across_runs() {
    let c = prepare(FIG1).unwrap();
    let cfg = RunConfig::rc_inf().with_spans().with_snapshots();
    let a = run(&c, &cfg);
    let b = run(&c, &cfg);
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(x.render(), y.render());
    }
}

#[test]
fn gc_backend_captures_a_snapshot_per_pause() {
    let c = prepare(FIG1).unwrap();
    let mut cfg = RunConfig::gc().with_snapshots();
    cfg.gc_threshold_words = 64; // force several collections
    let r = run(&c, &cfg);
    assert!(matches!(r.outcome, Outcome::Exit(_)));
    let gc_snaps = r.snapshots.iter().filter(|s| s.reason == SnapshotReason::Gc).count() as u64;
    assert_eq!(gc_snaps, r.stats.gc_collections, "one snapshot per pause");
    assert_eq!(r.snapshots.last().unwrap().reason, SnapshotReason::Exit);
    for s in &r.snapshots {
        assert_eq!(s.total_live_words(), s.stats.live_words, "identity holds at every pause");
    }
}

#[test]
fn trapped_run_dumps_the_pre_unwind_heap() {
    let c = prepare(FIG1).unwrap();
    let cfg = RunConfig::rc_inf()
        .with_snapshots()
        .trapping()
        .with_faults(FaultPlan::new().fail_alloc(FaultMode::Schedule(vec![10])).sticky());
    let r = run(&c, &cfg);
    assert!(matches!(r.outcome, Outcome::Trapped(_)));
    assert_eq!(r.snapshots.len(), 1, "the trap snapshot is the last word");
    let snap = &r.snapshots[0];
    assert_eq!(snap.reason, SnapshotReason::Trap);
    assert!(snap.region_live_words() > 0, "captured before the unwind released the regions");
    assert_eq!(snap.total_live_words(), snap.stats.live_words);
    // Deterministic even through the fault path.
    let again = run(&c, &cfg);
    assert_eq!(again.snapshots[0].render(), snap.render());
}

#[test]
fn snapshots_off_means_empty_and_unperturbed() {
    let c = prepare(FIG1).unwrap();
    let plain = run(&c, &RunConfig::rc_inf());
    assert!(plain.snapshots.is_empty());
    let observed = run(&c, &RunConfig::rc_inf().with_snapshots());
    assert_eq!(plain.stats, observed.stats, "capture charges no cycles");
    assert_eq!(plain.cycles, observed.cycles);
}
