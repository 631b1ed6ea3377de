//! End-to-end telemetry through the interpreter: tracing a real program
//! must fold to totals that exactly equal the run's `Stats`, attribute
//! events to the source lines that caused them, and never perturb the
//! run itself.

use rc_lang::interp::{prepare, run};
use rc_lang::{CheckMode, RunConfig};

/// The paper's Figure 1 program (nested sameregion list), with known
/// line numbers: the rallocs sit on lines 12 and 13, the annotated
/// stores on lines 13–15.
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

#[test]
fn traced_profile_totals_equal_stats() {
    let c = prepare(FIG1).unwrap();
    // qs so the annotated stores actually execute checks.
    let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
    assert_eq!(r.outcome, rc_lang::interp::Outcome::Exit((0..50).sum()));
    let p = r.profile().expect("tracing was on");
    let s = &r.stats;
    assert_eq!(p.totals.allocs, s.objects_allocated);
    assert_eq!(p.totals.alloc_words, s.words_allocated);
    assert_eq!(p.totals.rc_updates_full, s.rc_updates_full);
    assert_eq!(p.totals.rc_updates_same, s.rc_updates_same);
    assert_eq!(p.totals.checks_sameregion, s.checks_sameregion);
    assert_eq!(p.totals.checks_parentptr, s.checks_parentptr);
    assert_eq!(p.totals.checks_traditional, s.checks_traditional);
    assert_eq!(p.totals.regions_created, s.regions_created);
    assert_eq!(p.totals.regions_deleted, s.regions_deleted);
    assert_eq!(p.totals.gc_collections, s.gc_collections);
    assert!(p.totals.checks_total() > 0, "qs must have run checks");
}

#[test]
fn events_attribute_to_the_right_source_lines() {
    let c = prepare(FIG1).unwrap();
    let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
    let p = r.profile().unwrap();
    // The two rallocs in the loop body, 50 iterations each.
    let l12 = p.sites().find(|s| s.line == 12).expect("ralloc on line 12");
    assert_eq!(l12.allocs, 50);
    let l13 = p.sites().find(|s| s.line == 13).expect("ralloc + store on line 13");
    assert_eq!(l13.allocs, 50);
    // Lines 13 and 15 hold the sameregion stores (`rl->data = …` and
    // `rl->next = …`): one check each per iteration under qs.
    assert_eq!(l13.checks_sameregion, 50);
    let l15 = p.sites().find(|s| s.line == 15).expect("store on line 15");
    assert_eq!(l15.checks_sameregion, 50);
    // The hot-check-site table surfaces those lines first.
    let hot = p.hot_check_sites(5);
    assert!(!hot.is_empty());
    let hot_lines: Vec<u32> = hot.iter().map(|s| s.line).collect();
    assert!(hot_lines.contains(&13) && hot_lines.contains(&15), "{hot_lines:?}");
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let c = prepare(FIG1).unwrap();
    let plain = run(&c, &RunConfig::rc_inf());
    let traced = run(&c, &RunConfig::rc_inf().traced());
    assert_eq!(plain.outcome, traced.outcome);
    assert_eq!(plain.stats, traced.stats, "telemetry must be observation-only");
    assert_eq!(plain.cycles, traced.cycles);
    assert!(plain.tracer.is_none());
    assert!(traced.tracer.is_some());
}

#[test]
fn flamegraph_renders_the_subregion_hierarchy() {
    let src = "\
struct t { int x; };
int main() deletes {
    region outer = newregion();
    region mid = newsubregion(outer);
    region inner = newsubregion(mid);
    struct t *a = ralloc(outer, struct t);
    struct t *b = ralloc(mid, struct t);
    struct t *c = ralloc(inner, struct t);
    c->x = 1; b->x = 2; a->x = 3;
    a = null; b = null; c = null;
    deleteregion(inner);
    deleteregion(mid);
    deleteregion(outer);
    return 0;
}
";
    let c = prepare(src).unwrap();
    let r = run(&c, &RunConfig::rc_inf().traced());
    assert!(r.outcome.is_exit(), "{:?}", r.outcome);
    let fg = r.profile().unwrap().flamegraph();
    // Successive user regions are nested one level deeper each.
    let depth_of = |rname: &str| {
        fg.lines()
            .find(|l| l.trim_start().starts_with(rname))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap_or_else(|| panic!("{rname} missing from flamegraph:\n{fg}"))
    };
    let (d1, d2, d3) = (depth_of("r1"), depth_of("r2"), depth_of("r3"));
    assert!(d1 < d2 && d2 < d3, "nesting not reflected: {d1} {d2} {d3}\n{fg}");
}

#[test]
fn sampling_does_not_perturb_the_run_and_aligns_sites() {
    let c = prepare(FIG1).unwrap();
    let plain = run(&c, &RunConfig::rc(CheckMode::Qs));
    let sampled = run(&c, &RunConfig::rc(CheckMode::Qs).with_sampling(64, 64));
    assert_eq!(plain.outcome, sampled.outcome);
    assert_eq!(plain.stats, sampled.stats, "sampling must be observation-only");
    assert_eq!(plain.cycles, sampled.cycles);
    assert!(plain.timeline.is_none());
    let tl = sampled.timeline.as_ref().expect("timeline present when sampling on");
    assert!(tl.len() > 3, "interval 64 over this run must yield several samples");
    let s = tl.samples();
    // Virtual time is monotone across snapshots and the windowed cycle
    // deltas re-sum to the last snapshot's clock.
    assert!(s.windows(2).all(|w| w[0].at_cycles <= w[1].at_cycles));
    let total: u64 = s.iter().map(|x| x.d_cycles).sum();
    assert_eq!(total, s.last().unwrap().at_cycles);
    // Snapshots align with source phases: the samples taken inside the
    // allocation loop carry its line numbers (the loop body spans lines
    // 12–16 of FIG1).
    assert!(
        s.iter().any(|x| (12..=16).contains(&x.site)),
        "no sample attributed to the hot loop: {:?}",
        s.iter().map(|x| x.site).collect::<Vec<_>>()
    );
}
