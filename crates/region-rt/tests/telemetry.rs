//! Telemetry integration: the folded profile must agree exactly with the
//! `Stats` counters for the same run, the ring must stay bounded, and
//! every event kind keeps its encoding.

use region_rt::{Addr, Heap, HeapConfig, PtrKind, SlotKind, TypeLayout, WriteMode};

fn workout(h: &mut Heap) {
    let counted = h
        .register_type(TypeLayout::new("c", vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data]));
    let annotated = h.register_type(TypeLayout::new(
        "s",
        vec![SlotKind::Ptr(PtrKind::SameRegion), SlotKind::Ptr(PtrKind::ParentPtr)],
    ));
    let r1 = h.new_region();
    let r2 = h.new_subregion(r1).unwrap();
    h.set_trace_site(10);
    let a = h.ralloc(r1, counted).unwrap();
    let b = h.ralloc(r2, counted).unwrap();
    h.set_trace_site(11);
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap();
    h.write_ptr(a, 0, b, WriteMode::Counted).unwrap(); // early exit
    h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
    h.set_trace_site(12);
    let s1 = h.ralloc(r2, annotated).unwrap();
    let s2 = h.ralloc(r2, annotated).unwrap();
    h.write_ptr(s1, 0, s2, WriteMode::Check(PtrKind::SameRegion)).unwrap();
    let up = h.ralloc(r1, annotated).unwrap();
    h.write_ptr(s1, 1, up, WriteMode::Check(PtrKind::ParentPtr)).unwrap();
    h.set_trace_site(0);
    let m = h.m_alloc(counted, 2).unwrap();
    h.m_free(m).unwrap();
    h.gc_alloc(counted, 1).unwrap();
    h.gc_collect(&[]);
    h.delete_region(r2).unwrap();
    h.delete_region(r1).unwrap();
    let ok = h.audit().is_ok();
    h.record_audit_run(ok);
}

#[test]
fn folded_profile_totals_equal_stats() {
    let mut h = Heap::with_defaults();
    // A deliberately tiny ring: totals must stay exact anyway.
    h.enable_tracing(16);
    workout(&mut h);

    let t = h.tracer().expect("tracing enabled");
    assert!(t.dropped() > 0, "the tiny ring must have overflowed");
    let p = t.profile();
    let s = &h.stats;
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
    assert_eq!(p.totals.audit_runs, 1);
    assert_eq!(p.totals.audit_failures, 0);
}

#[test]
fn site_attribution_reaches_events() {
    let mut h = Heap::with_defaults();
    h.enable_tracing(4096);
    workout(&mut h);
    let p = h.tracer().unwrap().profile();
    let site10 = p.sites().find(|s| s.line == 10).expect("alloc site 10");
    assert_eq!(site10.allocs, 2);
    let site11 = p.sites().find(|s| s.line == 11).expect("rc site 11");
    assert_eq!(site11.rc_updates, 3);
    let site12 = p.sites().find(|s| s.line == 12).expect("check site 12");
    assert_eq!(site12.checks_sameregion, 1);
    assert_eq!(site12.checks_parentptr, 1);
    // Unattributed malloc/gc activity lands on line 0.
    let site0 = p.sites().find(|s| s.line == 0).expect("unattributed site");
    assert_eq!(site0.allocs, 2);
}

#[test]
fn tracing_does_not_change_stats_or_clock() {
    let mut plain = Heap::with_defaults();
    workout(&mut plain);
    let mut traced = Heap::with_defaults();
    traced.enable_tracing(64 * 1024);
    workout(&mut traced);
    assert_eq!(plain.stats, traced.stats, "telemetry must be observation-only");
    assert_eq!(plain.clock.cycles(), traced.clock.cycles());
}

#[test]
fn events_jsonl_round_trip_shape() {
    let mut h = Heap::new(HeapConfig::default());
    h.enable_tracing(4096);
    workout(&mut h);
    let t = h.take_tracer().unwrap();
    let jsonl = t.events_jsonl("workout");
    assert_eq!(jsonl.lines().count(), t.len());
    for line in jsonl.lines() {
        assert!(line.starts_with(r#"{"run":"workout","ev":""#), "bad line: {line}");
        assert!(line.ends_with('}'));
    }
    let profile_line = t.profile().to_json("workout").render();
    assert!(profile_line.contains(r#""kind":"profile""#));
    assert!(!profile_line.contains('\n'));
}

/// Drives one heap, with tracing, spans and check counting on, through
/// every event kind: region and subregion creation, the three allocators,
/// a counted store of null, a passing and a failing counted check, a
/// collection, an audit, an injected allocation fault and region
/// deletion. The expected strings pin each kind's encoding byte for byte.
#[test]
fn every_event_kind_has_a_pinned_encoding() {
    use region_rt::{FaultMode, FaultPlan, RtError};
    let mut h = Heap::with_defaults();
    h.enable_tracing(1024);
    h.enable_spans();
    h.enable_check_counting();
    let counted = h
        .register_type(TypeLayout::new("c", vec![SlotKind::Ptr(PtrKind::Counted), SlotKind::Data]));
    let same = h.register_type(TypeLayout::new("s", vec![SlotKind::Ptr(PtrKind::SameRegion)]));
    let r1 = h.new_region();
    let r2 = h.new_subregion(r1).unwrap();
    h.set_trace_site(3);
    let a = h.ralloc(r1, counted).unwrap();
    let s1 = h.ralloc(r1, same).unwrap();
    let s2 = h.ralloc(r2, same).unwrap();
    h.set_trace_site(4);
    h.m_alloc(counted, 2).unwrap();
    h.gc_alloc(counted, 1).unwrap();
    h.set_trace_site(5);
    h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
    h.set_trace_site(6);
    h.set_check_site(7);
    h.write_ptr(s1, 0, s1, WriteMode::CountedCheck(PtrKind::SameRegion)).unwrap();
    h.set_check_site(8);
    h.write_ptr(s1, 0, s2, WriteMode::CountedCheck(PtrKind::SameRegion)).unwrap();
    h.set_trace_site(5);
    h.write_ptr(s1, 0, Addr::NULL, WriteMode::Counted).unwrap();
    h.set_trace_site(9);
    h.gc_collect(&[]);
    let ok = h.audit().is_ok();
    h.record_audit_run(ok);
    h.install_faults(&FaultPlan::new().fail_alloc(FaultMode::nth(1)));
    assert_eq!(h.ralloc(r2, counted), Err(RtError::OutOfMemory));
    assert!(h.take_faults().is_some());
    h.delete_region(r2).unwrap();
    h.delete_region(r1).unwrap();

    let t = h.take_tracer().unwrap();
    assert_eq!(
        t.events_jsonl("t"),
        concat!(
            r#"{"run":"t","ev":"region_created","region":1,"at":66}"#,
            "\n",
            r#"{"run":"t","ev":"subregion_created","region":2,"parent":1,"at":135}"#,
            "\n",
            r#"{"run":"t","ev":"alloc","region":1,"site":3,"words":2}"#,
            "\n",
            r#"{"run":"t","ev":"alloc","region":1,"site":3,"words":1}"#,
            "\n",
            r#"{"run":"t","ev":"alloc","region":2,"site":3,"words":1}"#,
            "\n",
            r#"{"run":"t","ev":"alloc","region":0,"site":4,"words":4}"#,
            "\n",
            r#"{"run":"t","ev":"alloc","region":0,"site":4,"words":2}"#,
            "\n",
            r#"{"run":"t","ev":"rc_update","from":1,"to":null,"full":false,"site":5}"#,
            "\n",
            r#"{"run":"t","ev":"check","kind":"sameregion","site":6,"passed":true}"#,
            "\n",
            r#"{"run":"t","ev":"rc_update","from":1,"to":1,"full":true,"site":6}"#,
            "\n",
            r#"{"run":"t","ev":"check","kind":"sameregion","site":6,"passed":false}"#,
            "\n",
            r#"{"run":"t","ev":"rc_update","from":1,"to":2,"full":true,"site":6}"#,
            "\n",
            r#"{"run":"t","ev":"rc_update","from":1,"to":null,"full":true,"site":5}"#,
            "\n",
            r#"{"run":"t","ev":"gc","marked_words":0,"swept_objects":1}"#,
            "\n",
            r#"{"run":"t","ev":"audit","ok":true}"#,
            "\n",
            r#"{"run":"t","ev":"fault","plane":"alloc","op":1,"at":1108}"#,
            "\n",
            r#"{"run":"t","ev":"region_deleted","region":2,"live_words":1,"lifetime_cycles":1042}"#,
            "\n",
            r#"{"run":"t","ev":"region_deleted","region":1,"live_words":3,"lifetime_cycles":1112}"#,
            "\n",
        )
    );
    assert_eq!(
        t.profile().to_json("t").render(),
        concat!(
            r#"{"kind":"profile","source":"t","totals":{"regions_created":2,"subregions_created":1,"#,
            r#""regions_deleted":2,"allocs":5,"alloc_words":10,"rc_updates_full":3,"rc_updates_same":1,"#,
            r#""checks_sameregion":2,"checks_parentptr":0,"checks_traditional":0,"checks_failed":1,"#,
            r#""gc_collections":1,"audit_runs":1,"audit_failures":0,"faults_injected":1},"sites":["#,
            r#"{"line":3,"allocs":3,"alloc_words":4,"checks_sameregion":0,"checks_parentptr":0,"#,
            r#""checks_traditional":0,"checks_failed":0,"rc_updates":0},"#,
            r#"{"line":4,"allocs":2,"alloc_words":6,"checks_sameregion":0,"checks_parentptr":0,"#,
            r#""checks_traditional":0,"checks_failed":0,"rc_updates":0},"#,
            r#"{"line":5,"allocs":0,"alloc_words":0,"checks_sameregion":0,"checks_parentptr":0,"#,
            r#""checks_traditional":0,"checks_failed":0,"rc_updates":2},"#,
            r#"{"line":6,"allocs":0,"alloc_words":0,"checks_sameregion":2,"checks_parentptr":0,"#,
            r#""checks_traditional":0,"checks_failed":1,"rc_updates":2}],"regions":["#,
            r#"{"region":0,"parent":null,"created_at":0,"alloc_objects":2,"alloc_words":6,"#,
            r#""deleted":false,"live_words_at_delete":0,"lifetime_cycles":0},"#,
            r#"{"region":1,"parent":0,"created_at":66,"alloc_objects":2,"alloc_words":3,"#,
            r#""deleted":true,"live_words_at_delete":3,"lifetime_cycles":1112},"#,
            r#"{"region":2,"parent":1,"created_at":135,"alloc_objects":1,"alloc_words":1,"#,
            r#""deleted":true,"live_words_at_delete":1,"lifetime_cycles":1042}],"lifetime_hist":["#,
            r#"0,0,0,0,0,0,0,0,0,0,0,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"#,
            r#"0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}"#,
        )
    );

    // Spans open at each region's birth (before the creation charge the
    // trace's `at` includes) and fold every event's aggregates.
    let spans = h.take_spans().unwrap();
    let rows: Vec<_> = spans
        .spans()
        .iter()
        .map(|s| {
            (
                (s.region, s.parent, s.opened_at, s.closed_at),
                (s.allocs, s.alloc_words, s.rc_updates, s.checks, s.checks_failed),
                (s.faults, s.freed_words),
            )
        })
        .collect();
    assert_eq!(
        rows,
        vec![
            ((0, u32::MAX, 0, None), (2, 6, 0, 0, 0), (1, 0)),
            ((1, 0, 0, Some(1112)), (2, 3, 4, 2, 1), (0, 3)),
            ((2, 1, 66, Some(1108)), (1, 1, 0, 0, 0), (0, 1)),
        ]
    );

    let counter = h.take_check_counter().unwrap();
    assert_eq!((counter.runs(7), counter.fails(7)), (1, 0));
    assert_eq!((counter.runs(8), counter.fails(8)), (1, 1));
    assert_eq!(counter.site_count(), 2);
}
