//! Property test: the span tree is one of four accountings of the same
//! run, and all four ledgers must agree exactly.
//!
//! For 48 SplitMix64-chosen (workload × config) combinations, one run
//! records lifecycle spans ([`region_rt::SpanTree`]), the global event
//! counters ([`region_rt::Stats`]), the folded telemetry profile
//! ([`region_rt::Profile`]) and the per-site check tallies
//! ([`region_rt::CheckCounter`]) simultaneously, then cross-checks:
//!
//! - span-tree totals (allocs, alloc words, checks, RC updates) equal
//!   the corresponding [`region_rt::Stats`] counters;
//! - every deleted region's span duration equals the profile's
//!   `lifetime_cycles`, and its allocation tally equals the profile's
//!   per-region attribution;
//! - the check tallies' runs and failures equal the spans' `checks` and
//!   `checks_failed`, and the tracer's ring holds one check event per
//!   tallied run;
//! - the tree passes structural verification against the heap's own
//!   region table.
//!
//! Any drift means one of the four observers dropped or double-counted
//! an event — exactly the bug class telemetry must not have.

use rc_lang::interp::run;
use rc_lang::{CheckMode, RunConfig};
use rc_workloads::driver::prepare_workload;
use rc_workloads::Scale;

/// SplitMix64 (Steele et al.) — the same generator rc-fuzz seeds with.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn config_by_index(i: u64) -> (&'static str, RunConfig) {
    match i % 4 {
        0 => ("nq", RunConfig::rc(CheckMode::Nq)),
        1 => ("qs", RunConfig::rc(CheckMode::Qs)),
        2 => ("inf", RunConfig::rc_inf()),
        _ => ("nc", RunConfig::rc(CheckMode::Nc)),
    }
}

#[test]
fn span_totals_match_stats_and_profile_across_48_seeds() {
    let workloads = rc_workloads::all();
    for seed in 0..48u64 {
        let mut state = seed;
        let w = &workloads[(splitmix64(&mut state) % workloads.len() as u64) as usize];
        let (cname, config) = config_by_index(splitmix64(&mut state));
        let ctx = format!("seed {seed}: {} under {cname}", w.name);

        let c = prepare_workload(w, Scale::TINY);
        let r = run(&c, &config.with_spans().traced());
        let spans = r.spans.as_deref().unwrap_or_else(|| panic!("{ctx}: spans missing"));

        // Structural verification against the heap's region table ran at
        // seal time; it must have passed.
        assert_eq!(spans.verification(), Some(&Ok(())), "{ctx}");

        // Ledger 1 vs ledger 2: span totals against the global counters.
        let s = &r.stats;
        assert_eq!(spans.total_allocs(), s.objects_allocated, "{ctx}: allocs");
        assert_eq!(spans.total_alloc_words(), s.words_allocated, "{ctx}: words");
        assert_eq!(
            spans.total_checks(),
            s.checks_sameregion + s.checks_traditional + s.checks_parentptr,
            "{ctx}: checks"
        );
        assert_eq!(
            spans.total_rc_updates(),
            s.rc_updates_full + s.rc_updates_same,
            "{ctx}: rc updates"
        );

        // Ledger 1 vs ledger 3: per-region spans against the profile.
        let profile = r.profile().unwrap_or_else(|| panic!("{ctx}: profile missing"));
        let mut deleted_seen = 0;
        for rp in profile.regions() {
            let span = &spans.spans()[rp.region as usize];
            assert_eq!(span.region, rp.region, "{ctx}: span index invariant");
            assert_eq!(span.allocs, rp.alloc_objects, "{ctx}: region {} allocs", rp.region);
            assert_eq!(span.alloc_words, rp.alloc_words, "{ctx}: region {} words", rp.region);
            if rp.deleted {
                deleted_seen += 1;
                let dur = span
                    .duration()
                    .unwrap_or_else(|| panic!("{ctx}: region {} deleted but span open", rp.region));
                assert_eq!(dur, rp.lifetime_cycles, "{ctx}: region {} lifetime", rp.region);
            }
        }
        // Ledger 1 vs ledger 4: the per-site check tallies, which a span
        // run attaches, against the spans and the raw check events.
        let counts = r.check_counts.as_deref().unwrap_or_else(|| panic!("{ctx}: tallies missing"));
        let failed: u64 = spans.spans().iter().map(|s| s.checks_failed).sum();
        assert_eq!(counts.total_runs(), spans.total_checks(), "{ctx}: tallied runs");
        assert_eq!(counts.total_fails(), failed, "{ctx}: tallied failures");
        let tracer = r.tracer.as_deref().unwrap_or_else(|| panic!("{ctx}: tracer missing"));
        assert_eq!(tracer.dropped(), 0, "{ctx}: the ring kept every event");
        let check_events =
            tracer.events().filter(|e| matches!(e, region_rt::Event::CheckRun { .. })).count();
        assert_eq!(check_events as u64, counts.total_runs(), "{ctx}: check events");

        // The sweep must actually exercise region reclamation, not just
        // trivially pass on runs with no deletions.
        if seed == 0 {
            assert!(spans.closed_count() > 0 || deleted_seen == 0, "{ctx}");
        }
    }
}
