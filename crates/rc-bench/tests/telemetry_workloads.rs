//! Telemetry acceptance tests against the real paper workloads: the folded
//! profile must agree *exactly* with the runtime's `Stats` counters (the
//! fold happens online at record time, so ring capacity must not matter),
//! tracing must be observation-only, and the Figure 8 workloads must
//! attribute their checks to concrete source lines.

use rc_lang::interp::{run, Outcome};
use rc_lang::{CheckMode, RunConfig};
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;

const SCALE: Scale = Scale::TINY;

#[test]
fn folded_profile_totals_equal_stats_on_every_workload() {
    for w in rc_workloads::all() {
        let c = prepare_workload(&w, SCALE);
        let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
        assert!(matches!(r.outcome, Outcome::Exit(_)), "{}: {:?}", w.name, r.outcome);
        let s = &r.stats;
        let t = r.tracer.as_ref().expect("tracing was enabled");
        let p = &t.profile().totals;
        assert_eq!(p.regions_created, s.regions_created, "{}: regions_created", w.name);
        assert_eq!(p.regions_deleted, s.regions_deleted, "{}: regions_deleted", w.name);
        assert_eq!(p.allocs, s.objects_allocated, "{}: allocs", w.name);
        assert_eq!(p.alloc_words, s.words_allocated, "{}: alloc_words", w.name);
        assert_eq!(p.rc_updates_full, s.rc_updates_full, "{}: rc_updates_full", w.name);
        assert_eq!(p.rc_updates_same, s.rc_updates_same, "{}: rc_updates_same", w.name);
        assert_eq!(p.checks_sameregion, s.checks_sameregion, "{}: checks_sameregion", w.name);
        assert_eq!(p.checks_parentptr, s.checks_parentptr, "{}: checks_parentptr", w.name);
        assert_eq!(p.checks_traditional, s.checks_traditional, "{}: checks_traditional", w.name);
        assert_eq!(p.gc_collections, s.gc_collections, "{}: gc_collections", w.name);
        assert_eq!(p.checks_failed, 0, "{}: clean runs fail no checks", w.name);
    }
}

#[test]
fn folded_totals_are_independent_of_ring_capacity() {
    let w = rc_workloads::by_name("lcc").expect("known workload");
    let c = prepare_workload(&w, SCALE);
    let mut tiny = RunConfig::rc(CheckMode::Qs).traced();
    tiny.trace_capacity = 16; // far fewer slots than events: the ring drops, the fold must not
    let r = run(&c, &tiny);
    assert!(matches!(r.outcome, Outcome::Exit(_)), "{:?}", r.outcome);
    let t = r.tracer.as_ref().expect("traced");
    assert!(t.dropped() > 0, "capacity 16 must overflow on lcc");
    assert_eq!(t.len(), 16);
    assert_eq!(t.profile().totals.allocs, r.stats.objects_allocated);
    assert_eq!(
        t.profile().totals.checks_sameregion + t.profile().totals.checks_parentptr,
        r.stats.checks_sameregion + r.stats.checks_parentptr
    );
}

#[test]
fn tracing_is_observation_only_on_workload_runs() {
    let w = rc_workloads::by_name("mudlle").expect("known workload");
    let c = prepare_workload(&w, SCALE);
    let plain = run(&c, &RunConfig::rc(CheckMode::Qs));
    let traced = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
    assert_eq!(format!("{:?}", plain.outcome), format!("{:?}", traced.outcome));
    assert_eq!(plain.cycles, traced.cycles, "tracing must not change the cost model");
    assert_eq!(plain.stats, traced.stats, "tracing must not change the counters");
}

#[test]
fn figure8_workloads_attribute_checks_to_source_lines() {
    // A subset of the Figure 8 workloads.
    for wname in ["lcc", "mudlle", "moss"] {
        let w = rc_workloads::by_name(wname).expect("known workload");
        let c = prepare_workload(&w, SCALE);
        let r = run(&c, &RunConfig::rc(CheckMode::Qs).traced());
        assert!(matches!(r.outcome, Outcome::Exit(_)), "{wname}: {:?}", r.outcome);
        let p = r.profile().expect("traced");
        let hot = p.hot_check_sites(5);
        assert!(!hot.is_empty(), "{wname}: qs runs checks, so hot sites exist");
        for site in &hot {
            assert!(site.line > 0, "{wname}: check sites carry real source lines");
            assert!(site.checks_total() > 0, "{wname}: hot sites ran checks");
        }
        // The top-5 list is sorted and really is the top.
        let max_elsewhere = p
            .sites()
            .filter(|s| hot.iter().all(|h| h.line != s.line))
            .map(|s| s.checks_total())
            .max()
            .unwrap_or(0);
        assert!(
            hot.last().expect("nonempty").checks_total() >= max_elsewhere,
            "{wname}: hot_check_sites(5) must dominate the rest"
        );
    }
}

#[test]
fn telemetry_report_covers_every_workload() {
    let tel = rc_bench::report::telemetry(SCALE);
    assert_eq!(tel.rows.len(), rc_workloads::all().len());
    assert_eq!(tel.tracers.len(), tel.rows.len());
    for line in tel.profiles_jsonl().lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "JSONL line: {line}");
    }
    assert!(tel.flamegraph.contains("outer") || !tel.flamegraph.is_empty());
}
