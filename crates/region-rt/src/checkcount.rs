//! Per-site dynamic check counters for the differential harness.
//!
//! The rlang inference (§4.3) removes a `chk` only when it can prove the
//! check never *fails*. The conformance oracle in `rc-fuzz` tests exactly
//! that claim: it reruns the *uninferred* program with counting enabled
//! and asserts that every site the inference eliminated has a dynamic
//! failure count of zero. To observe failures without changing program
//! behaviour, counting rides on [`crate::WriteMode::CountedCheck`]: the
//! store evaluates the annotation predicate, records the outcome here,
//! and then performs the full Figure 3(a) reference-count update — so a
//! counting run is observationally identical to the paper's `nq`
//! configuration (no aborts, counts maintained, heap audit-clean).
//!
//! The counter is a consumer of the heap's event stream: it tallies
//! every [`Event::CheckRun`](crate::trace::Event) by its `check_site`.
//! Attribution uses the front end's check-site ids (the same `SiteId`
//! space rlang's verdicts are keyed by), published through
//! [`Heap::set_check_site`] — deliberately separate from the telemetry
//! `trace_site`, which carries source *lines*.

use std::collections::BTreeMap;

use crate::heap::Heap;

/// The distinguished "no site" attribution value (stores the front end
/// did not mint a check site for, e.g. internal harness writes).
pub const NO_CHECK_SITE: u32 = u32::MAX;

/// Dynamic outcome tallies for one check site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCheckCounts {
    /// Times the check predicate was evaluated.
    pub runs: u64,
    /// Times it evaluated to false (the check would have fired/aborted).
    pub fails: u64,
}

/// Per-site tallies of annotation-check evaluations, keyed by front-end
/// check-site id. Iteration order is sorted (BTreeMap), so reports built
/// from a counter are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckCounter {
    counts: BTreeMap<u32, SiteCheckCounts>,
}

impl CheckCounter {
    /// An empty counter.
    pub fn new() -> CheckCounter {
        CheckCounter::default()
    }

    /// Records one predicate evaluation at `site`.
    pub fn record(&mut self, site: u32, passed: bool) {
        let c = self.counts.entry(site).or_default();
        c.runs += 1;
        if !passed {
            c.fails += 1;
        }
    }

    /// Times the check at `site` was evaluated (0 for unseen sites).
    pub fn runs(&self, site: u32) -> u64 {
        self.counts.get(&site).map_or(0, |c| c.runs)
    }

    /// Times the check at `site` failed (0 for unseen sites).
    pub fn fails(&self, site: u32) -> u64 {
        self.counts.get(&site).map_or(0, |c| c.fails)
    }

    /// Total evaluations across all sites.
    pub fn total_runs(&self) -> u64 {
        self.counts.values().map(|c| c.runs).sum()
    }

    /// Total failures across all sites.
    pub fn total_fails(&self) -> u64 {
        self.counts.values().map(|c| c.fails).sum()
    }

    /// Sites with at least one failure, ascending.
    pub fn fired_sites(&self) -> Vec<u32> {
        self.counts.iter().filter(|(_, c)| c.fails > 0).map(|(&s, _)| s).collect()
    }

    /// All `(site, counts)` pairs, ascending by site.
    pub fn iter(&self) -> impl Iterator<Item = (u32, SiteCheckCounts)> + '_ {
        self.counts.iter().map(|(&s, &c)| (s, c))
    }

    /// Number of distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.counts.len()
    }

    /// Folds another counter in, summing per-site tallies (shard → global
    /// roll-up; see [`crate::shard`]). Site ids share one front-end space
    /// across shards, so union-by-site is exact; commutative and
    /// associative because `+` is.
    pub fn merge(&mut self, other: &CheckCounter) {
        for (site, c) in other.iter() {
            let e = self.counts.entry(site).or_default();
            e.runs += c.runs;
            e.fails += c.fails;
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

impl Heap {
    /// Starts recording per-site check outcomes into a fresh counter, a
    /// consumer of the heap's event stream. Replaces any existing
    /// counter.
    pub fn enable_check_counting(&mut self) {
        self.observers_mut().checks = Some(Box::new(CheckCounter::new()));
    }

    /// Stops counting and detaches the counter, returning it for oracle
    /// queries. `None` if counting was never enabled.
    pub fn take_check_counter(&mut self) -> Option<Box<CheckCounter>> {
        self.detach(|o| o.checks.take())
    }

    /// Publishes the front-end check-site id for subsequent checks
    /// ([`NO_CHECK_SITE`] = unattributed). One store each; the
    /// interpreter calls this before annotated pointer stores.
    #[inline(always)]
    pub fn set_check_site(&mut self, site: u32) {
        self.check_site = site;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::layout::{PtrKind, SlotKind, TypeLayout};
    use crate::rcops::WriteMode;

    #[test]
    fn counter_tallies_runs_and_fails_per_site() {
        let mut c = CheckCounter::new();
        c.record(3, true);
        c.record(3, true);
        c.record(3, false);
        c.record(7, true);
        assert_eq!(c.runs(3), 3);
        assert_eq!(c.fails(3), 1);
        assert_eq!(c.runs(7), 1);
        assert_eq!(c.fails(7), 0);
        assert_eq!(c.runs(99), 0);
        assert_eq!(c.total_runs(), 4);
        assert_eq!(c.total_fails(), 1);
        assert_eq!(c.fired_sites(), vec![3]);
        assert_eq!(c.site_count(), 2);
    }

    #[test]
    fn counted_check_counts_but_never_aborts() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::new(
            "node",
            vec![SlotKind::Ptr(PtrKind::SameRegion), SlotKind::Data],
        ));
        h.enable_check_counting();
        let r1 = h.new_region();
        let r2 = h.new_region();
        let a = h.ralloc(r1, ty).unwrap();
        let b = h.ralloc(r1, ty).unwrap();
        let c = h.ralloc(r2, ty).unwrap();
        h.set_check_site(5);
        // Passing store: counted, no failure.
        h.write_ptr(a, 0, b, WriteMode::CountedCheck(PtrKind::SameRegion)).unwrap();
        // Cross-region store: the qs check would abort here; the counting
        // mode records the failure and completes the store with the full
        // reference-count update instead.
        h.write_ptr(a, 0, c, WriteMode::CountedCheck(PtrKind::SameRegion)).unwrap();
        assert_eq!(h.region_rc(r2), 1, "failed check still counted the store");
        let counter = h.take_check_counter().unwrap();
        assert_eq!(counter.runs(5), 2);
        assert_eq!(counter.fails(5), 1);
        assert_eq!(counter.fired_sites(), vec![5]);
        // Refcounts stayed conservation-correct: the audit passes.
        h.write_ptr(a, 0, Addr::NULL, WriteMode::Counted).unwrap();
        h.delete_region(r2).unwrap();
        h.audit().unwrap();
    }

    #[test]
    fn counting_disabled_records_nothing() {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::new("node", vec![SlotKind::Ptr(PtrKind::SameRegion)]));
        let r = h.new_region();
        let a = h.ralloc(r, ty).unwrap();
        h.write_ptr(a, 0, a, WriteMode::CountedCheck(PtrKind::SameRegion)).unwrap();
        assert!(h.take_check_counter().is_none());
    }
}
