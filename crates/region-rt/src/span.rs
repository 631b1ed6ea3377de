//! Region lifecycle spans: the causality layer over the event stream.
//!
//! The trace ring ([`crate::trace`]) answers *which event*; the timeline
//! ([`crate::timeline`]) answers *when*. This module adds *structure*:
//! every region's lifecycle (`newregion` → `deleteregion`) is a [`Span`]
//! in a parent/child tree mirroring the DFS `id`/`nextid` hierarchy of
//! [`crate::region`], and every alloc / rc-update / check / collection /
//! injected fault [`Event`] is attached to its owning span as a note.
//! The tree is what the Perfetto exporter in `rc-bench` renders (spans on
//! tracks, notes as instants) and what the fuzzer's well-formedness
//! oracle cross-checks.
//!
//! Design constraints, shared with the rest of the telemetry stack (see
//! `docs/OBSERVABILITY.md`):
//!
//! - **One stream.** The tree is a consumer of the heap's event stream:
//!   [`SpanTree::fold`] sees the same [`Event`]s as the tracer, emitted
//!   once per site behind the heap's one observer guard.
//! - **Bounded notes, exact aggregates.** Raw notes live in a bounded
//!   vector (newest dropped when full, never reallocated past the cap),
//!   but per-span counters, last-touch stamps and the per-check-site
//!   tally are folded at emission time, so they stay exact no matter how
//!   many notes were dropped.
//! - **Deterministic.** Spans and notes are stamped by the virtual
//!   clock only; two runs of the same program produce identical trees.
//!
//! Span indices equal region indices: the runtime never reuses a region
//! slot, so `spans()[r]` is region `r`'s span for the whole run.

use crate::checkcount::{CheckCounter, NO_CHECK_SITE};
use crate::cost::Cycles;
use crate::heap::Heap;
use crate::region::{is_ancestor, RegionData, TRADITIONAL};
use crate::trace::{Event, NO_REGION};

/// Default bound on retained raw notes.
pub const DEFAULT_SPAN_NOTE_CAP: usize = 256 * 1024;

/// One region lifecycle. `region` is the raw
/// [`RegionId`](crate::region::RegionId) index; the span for region `r`
/// sits at index `r` of [`SpanTree::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The region this span covers.
    pub region: u32,
    /// Parent region ([`NO_REGION`] for the traditional root, or for a
    /// region whose creation predates span recording).
    pub parent: u32,
    /// Virtual time of `newregion`/`newsubregion` (the region's
    /// `born_at`, so durations equal the profile's `lifetime_cycles`).
    pub opened_at: Cycles,
    /// Virtual time of reclamation; `None` while the region is live.
    pub closed_at: Option<Cycles>,
    /// Objects allocated into the region.
    pub allocs: u64,
    /// Words allocated into the region.
    pub alloc_words: u64,
    /// Reference-count updates on objects of this region.
    pub rc_updates: u64,
    /// Annotation checks on stores into objects of this region.
    pub checks: u64,
    /// The subset of `checks` that failed.
    pub checks_failed: u64,
    /// Injected faults attributed to this span (root span only; fault
    /// planes are process-level).
    pub faults: u64,
    /// Words of storage freed when the span closed.
    pub freed_words: u64,
    /// Virtual time of the latest note attributed to this span (0 =
    /// never touched): what post-mortem tools rank idle regions by.
    pub last_touch: Cycles,
}

impl Span {
    fn new(region: u32, parent: u32, opened_at: Cycles) -> Span {
        Span {
            region,
            parent,
            opened_at,
            closed_at: None,
            allocs: 0,
            alloc_words: 0,
            rc_updates: 0,
            checks: 0,
            checks_failed: 0,
            faults: 0,
            freed_words: 0,
            last_touch: 0,
        }
    }

    /// Span duration: reclamation minus creation (`None` while open).
    pub fn duration(&self) -> Option<Cycles> {
        self.closed_at.map(|c| c.saturating_sub(self.opened_at))
    }
}

/// The span tree of one run: one [`Span`] per region (index = region
/// id), bounded raw notes (the alloc / rc-update / check / collection /
/// fault [`Event`]s, in emission order), and exact folded tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    spans: Vec<Span>,
    notes: Vec<Event>,
    note_cap: usize,
    notes_dropped: u64,
    check_sites: CheckCounter,
    verified: Option<Result<(), String>>,
}

impl SpanTree {
    /// An empty tree retaining at most `note_cap` raw notes (clamped to
    /// at least 16).
    pub fn new(note_cap: usize) -> SpanTree {
        SpanTree {
            spans: Vec::new(),
            notes: Vec::new(),
            note_cap: note_cap.max(16),
            notes_dropped: 0,
            check_sites: CheckCounter::new(),
            verified: None,
        }
    }

    /// Rebuilds a tree from snapshot-recorded span aggregates (restore
    /// path). Raw notes are not part of a snapshot.
    pub(crate) fn from_snapshot(spans: Vec<Span>) -> SpanTree {
        SpanTree { spans, ..SpanTree::new(DEFAULT_SPAN_NOTE_CAP) }
    }

    /// A tree seeded from an existing region table: every region already
    /// created gets a span (closed with zero duration if already dead,
    /// so the index invariant holds from the first recorded event).
    pub fn seeded(note_cap: usize, regions: &[RegionData]) -> SpanTree {
        let mut t = SpanTree::new(note_cap);
        for (i, rd) in regions.iter().enumerate() {
            let parent = rd.parent.map_or(NO_REGION, |p| p.0);
            let mut s = Span::new(i as u32, parent, rd.born_at);
            if !rd.alive {
                s.closed_at = Some(rd.born_at);
            }
            t.spans.push(s);
        }
        t
    }

    /// Folds one event into the tree: creations open spans (at the
    /// region's `born_at`, so durations equal the profile's
    /// `lifetime_cycles`), reclamations close them, and allocs, count
    /// updates, checks, collections and faults become notes on their
    /// span (collections and faults on the root: fault planes and the
    /// collector are process-level).
    pub fn fold(&mut self, ev: &Event) {
        match *ev {
            Event::RegionCreated { region, born_at, .. } => {
                self.open(region, TRADITIONAL.0, born_at)
            }
            Event::SubregionCreated { region, parent, born_at, .. } => {
                self.open(region, parent, born_at)
            }
            Event::RegionDeleted { region, live_words, at, .. } => {
                self.close(region, at, live_words)
            }
            Event::Alloc { region, words, at, .. } => {
                if let Some(s) = self.note(region, at, ev) {
                    s.allocs += 1;
                    s.alloc_words += words as u64;
                }
            }
            Event::RcUpdate { from, at, .. } => {
                if let Some(s) = self.note(from, at, ev) {
                    s.rc_updates += 1;
                }
            }
            Event::CheckRun { region, check_site, passed, at, .. } => {
                if check_site != NO_CHECK_SITE {
                    self.check_sites.record(check_site, passed);
                }
                if let Some(s) = self.note(region, at, ev) {
                    s.checks += 1;
                    s.checks_failed += u64::from(!passed);
                }
            }
            Event::GcCollection { at, .. } => {
                self.note(TRADITIONAL.0, at, ev);
            }
            Event::Fault { at, .. } => {
                if let Some(s) = self.note(TRADITIONAL.0, at, ev) {
                    s.faults += 1;
                }
            }
            Event::AuditRun { .. } => {}
        }
    }

    fn open(&mut self, region: u32, parent: u32, at: Cycles) {
        self.spans.push(Span::new(region, parent, at));
    }

    fn close(&mut self, region: u32, at: Cycles, freed_words: u64) {
        if let Some(s) = self.spans.get_mut(region as usize) {
            s.closed_at = Some(at);
            s.freed_words = freed_words;
        }
    }

    fn push_note(&mut self, ev: Event) {
        if self.notes.len() < self.note_cap {
            self.notes.push(ev);
        } else {
            self.notes_dropped += 1;
        }
    }

    /// Retains `ev` as a note on `region`'s span and stamps the span's
    /// last touch; returns the span for the caller's counters.
    fn note(&mut self, region: u32, at: Cycles, ev: &Event) -> Option<&mut Span> {
        self.push_note(*ev);
        let s = self.spans.get_mut(region as usize)?;
        s.last_touch = s.last_touch.max(at);
        Some(s)
    }

    /// Grafts another tree's spans into this one under a shard-global
    /// region namespace (shard → global roll-up; see [`crate::shard`]).
    ///
    /// The other tree's region 0 — its facet of the shared traditional
    /// region — folds its counters into this tree's root span; every
    /// other region `r ≥ 1` is renumbered to `len(self) + r - 1`, which
    /// keeps the `spans[i].region == i` index invariant dense. Notes are
    /// appended in emission order with every region field renumbered the
    /// same way (still bounded by this tree's note cap), and
    /// per-check-site tallies sum.
    /// The merge is associative: `(a ⊔ b) ⊔ c` and `a ⊔ (b ⊔ c)` assign
    /// every region the same global index and the same counters. It is
    /// deliberately *not* commutative — shard order is join order.
    ///
    /// Verification is per-heap (a merged tree spans several region
    /// tables): each side is expected to carry its own
    /// [`SpanTree::verification`] verdict, and the merged tree keeps the
    /// first failure.
    pub fn merge(&mut self, other: &SpanTree) {
        debug_assert!(
            !self.spans.is_empty() || other.spans.is_empty(),
            "merge target must already hold its root span"
        );
        let base = self.spans.len() as u32;
        let remap = |r: u32| {
            if r == TRADITIONAL.0 || r == NO_REGION {
                r
            } else {
                base + r - 1
            }
        };
        for s in &other.spans {
            if s.region == TRADITIONAL.0 {
                if let Some(root) = self.spans.get_mut(TRADITIONAL.0 as usize) {
                    root.allocs += s.allocs;
                    root.alloc_words += s.alloc_words;
                    root.rc_updates += s.rc_updates;
                    root.checks += s.checks;
                    root.checks_failed += s.checks_failed;
                    root.faults += s.faults;
                    root.freed_words += s.freed_words;
                    root.last_touch = root.last_touch.max(s.last_touch);
                }
                continue;
            }
            let mut ns = *s;
            ns.region = remap(s.region);
            ns.parent = remap(s.parent);
            self.spans.push(ns);
        }
        for n in &other.notes {
            let mut nn = *n;
            // Collections and faults, the other note kinds, carry no
            // region.
            match &mut nn {
                Event::Alloc { region, .. } | Event::CheckRun { region, .. } => {
                    *region = remap(*region)
                }
                Event::RcUpdate { from, to, .. } => {
                    *from = remap(*from);
                    *to = remap(*to);
                }
                _ => {}
            }
            self.push_note(nn);
        }
        self.notes_dropped += other.notes_dropped;
        self.check_sites.merge(&other.check_sites);
        if let Some(Err(e)) = &other.verified {
            if !matches!(self.verified, Some(Err(_))) {
                self.verified = Some(Err(e.clone()));
            }
        }
    }

    /// The table-free subset of [`SpanTree::verify`]: index and parent
    /// integrity plus lifetime nesting, checkable on a merged tree that
    /// spans several heaps (and therefore has no single region table to
    /// verify against).
    pub fn structurally_well_formed(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.region as usize != i {
                return Err(format!("span {i} records region {}", s.region));
            }
            if let Some(c) = s.closed_at {
                if c < s.opened_at {
                    return Err(format!("span {i}: closed at {c} before open {}", s.opened_at));
                }
            }
            if s.parent != NO_REGION && self.spans.get(s.parent as usize).is_none() {
                return Err(format!("span {i}: parent {} out of range", s.parent));
            }
        }
        Ok(())
    }

    /// All spans, region id ascending (index = region id).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Retained raw notes, emission order.
    pub fn notes(&self) -> &[Event] {
        &self.notes
    }

    /// Notes discarded because the bound was hit.
    pub fn notes_dropped(&self) -> u64 {
        self.notes_dropped
    }

    /// Exact per-check-site outcome tallies (checks whose site the
    /// interpreter published).
    pub fn check_sites(&self) -> &CheckCounter {
        &self.check_sites
    }

    /// Spans still open.
    pub fn open_count(&self) -> usize {
        self.spans.iter().filter(|s| s.closed_at.is_none()).count()
    }

    /// Spans closed by reclamation.
    pub fn closed_count(&self) -> usize {
        self.spans.iter().filter(|s| s.closed_at.is_some()).count()
    }

    /// Sum of `allocs` over all spans.
    pub fn total_allocs(&self) -> u64 {
        self.spans.iter().map(|s| s.allocs).sum()
    }

    /// Sum of `alloc_words` over all spans.
    pub fn total_alloc_words(&self) -> u64 {
        self.spans.iter().map(|s| s.alloc_words).sum()
    }

    /// Sum of `rc_updates` over all spans.
    pub fn total_rc_updates(&self) -> u64 {
        self.spans.iter().map(|s| s.rc_updates).sum()
    }

    /// Sum of `checks` over all spans.
    pub fn total_checks(&self) -> u64 {
        self.spans.iter().map(|s| s.checks).sum()
    }

    /// Stamps the outcome of [`Heap::seal_spans`]' well-formedness
    /// verification into the tree, so consumers that only see the
    /// detached tree (the fuzz oracle, report builders) can read it.
    pub fn set_verified(&mut self, outcome: Result<(), String>) {
        self.verified = Some(outcome);
    }

    /// The stamped verification outcome (`None` = never verified).
    pub fn verification(&self) -> Option<&Result<(), String>> {
        self.verified.as_ref()
    }

    /// Checks the tree's well-formedness against the region table:
    ///
    /// - one span per region, `span.region` = its index;
    /// - balanced open/close — a span is closed iff its region is dead;
    /// - children time-nested within parents (a child opens no earlier
    ///   than its parent and closes no later — region deletion is
    ///   structurally bottom-up);
    /// - parent links of live spans match the heap's, and live
    ///   parent/child pairs satisfy the DFS `id`/`nextid` interval
    ///   containment that backs the `parentptr` check.
    pub fn verify(&self, regions: &[RegionData]) -> Result<(), String> {
        if self.spans.len() != regions.len() {
            return Err(format!(
                "span/region count mismatch: {} spans, {} regions",
                self.spans.len(),
                regions.len()
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let rd = &regions[i];
            if s.region as usize != i {
                return Err(format!("span {i} records region {}", s.region));
            }
            if s.closed_at.is_some() == rd.alive {
                return Err(format!(
                    "span {i}: closed={} but region alive={}",
                    s.closed_at.is_some(),
                    rd.alive
                ));
            }
            if let Some(c) = s.closed_at {
                if c < s.opened_at {
                    return Err(format!("span {i}: closed at {c} before open {}", s.opened_at));
                }
            }
            if rd.alive {
                let heap_parent = rd.parent.map_or(NO_REGION, |p| p.0);
                if i != TRADITIONAL.0 as usize && s.parent != heap_parent {
                    return Err(format!(
                        "span {i}: parent {} but region parent {heap_parent}",
                        s.parent
                    ));
                }
            }
            if s.parent != NO_REGION {
                let Some(p) = self.spans.get(s.parent as usize) else {
                    return Err(format!("span {i}: parent {} out of range", s.parent));
                };
                if s.opened_at < p.opened_at {
                    return Err(format!(
                        "span {i} opened at {} before its parent ({})",
                        s.opened_at, p.opened_at
                    ));
                }
                if let Some(pc) = p.closed_at {
                    match s.closed_at {
                        None => {
                            return Err(format!("span {i} open after parent {} closed", s.parent))
                        }
                        Some(c) if c > pc => {
                            return Err(format!(
                                "span {i} closed at {c}, after parent {} at {pc}",
                                s.parent
                            ))
                        }
                        Some(_) => {}
                    }
                }
                // DFS interval containment only holds for the *live*
                // hierarchy (dead regions keep stale numbers).
                let pd = &regions[s.parent as usize];
                if rd.alive && pd.alive {
                    if rd.id >= rd.nextid {
                        return Err(format!(
                            "region {i}: empty DFS interval [{}, {})",
                            rd.id, rd.nextid
                        ));
                    }
                    if !is_ancestor(
                        regions,
                        crate::region::RegionId(s.parent),
                        crate::region::RegionId(i as u32),
                    ) || rd.nextid > pd.nextid
                    {
                        return Err(format!(
                            "region {i} interval [{}, {}) not inside parent {} [{}, {})",
                            rd.id, rd.nextid, s.parent, pd.id, pd.nextid
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

impl Heap {
    /// Attaches a [`SpanTree`] retaining at most `note_cap` raw notes.
    /// Regions that already exist are seeded (the traditional region's
    /// span opens at time 0). Replaces any existing tree.
    pub fn enable_spans(&mut self, note_cap: usize) {
        let tree = SpanTree::seeded(note_cap, &self.regions);
        self.observers_mut().spans = Some(Box::new(tree));
    }

    /// Detaches and returns the span tree, disabling further recording.
    pub fn take_spans(&mut self) -> Option<Box<SpanTree>> {
        self.detach(|o| o.spans.take())
    }

    /// The attached span tree, if any.
    pub fn spans(&self) -> Option<&SpanTree> {
        self.observers.as_ref()?.spans.as_deref()
    }

    /// Publishes the static verdict of the next annotation check's site
    /// (pairs with [`Heap::set_check_site`]); stamped into
    /// [`Event::CheckRun`] as `statically_safe`.
    #[inline(always)]
    pub fn set_check_verdict(&mut self, safe: bool) {
        self.check_safe = safe;
    }

    /// Verifies the span tree against the live region table and stamps
    /// the outcome into the tree (see [`SpanTree::verification`]).
    /// No-op when spans are disabled. Returns the outcome.
    pub fn seal_spans(&mut self) -> Result<(), String> {
        let Some(o) = self.observers.as_deref_mut() else { return Ok(()) };
        let Some(t) = o.spans.as_deref_mut() else { return Ok(()) };
        let outcome = t.verify(&self.regions);
        t.set_verified(outcome.clone());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Heap;
    use crate::layout::{PtrKind, SlotKind, TypeLayout};

    fn check(region: u32, at: Cycles, check_site: u32, passed: bool) -> Event {
        let kind = PtrKind::SameRegion;
        Event::CheckRun { kind, region, site: 1, check_site, passed, statically_safe: false, at }
    }

    fn ty(h: &mut Heap) -> crate::layout::TypeId {
        h.register_type(TypeLayout::new("t", vec![SlotKind::Data, SlotKind::Data]))
    }

    #[test]
    fn spans_mirror_region_lifecycles() {
        let mut h = Heap::with_defaults();
        let ty = ty(&mut h);
        h.enable_spans(DEFAULT_SPAN_NOTE_CAP);
        let parent = h.new_region();
        let child = h.new_subregion(parent).unwrap();
        h.ralloc(child, ty).unwrap();
        h.ralloc(child, ty).unwrap();
        h.delete_region(child).unwrap();
        h.delete_region(parent).unwrap();
        assert!(h.seal_spans().is_ok());
        let t = h.take_spans().unwrap();
        assert_eq!(t.spans().len(), 3, "traditional + two regions");
        let c = t.spans()[child.0 as usize];
        assert_eq!(c.parent, parent.0);
        assert_eq!(c.allocs, 2);
        assert_eq!(c.alloc_words, 4);
        assert!(c.closed_at.is_some());
        assert!(t.spans()[0].closed_at.is_none(), "root never closes");
        assert_eq!(t.open_count(), 1);
        assert_eq!(t.closed_count(), 2);
        assert_eq!(t.verification(), Some(&Ok(())));
    }

    #[test]
    fn child_nesting_and_duration_hold() {
        let mut h = Heap::with_defaults();
        h.enable_spans(64);
        let r = h.new_region();
        let s = h.new_subregion(r).unwrap();
        h.delete_region(s).unwrap();
        h.delete_region(r).unwrap();
        let t = h.take_spans().unwrap();
        let (pr, ch) = (t.spans()[r.0 as usize], t.spans()[s.0 as usize]);
        assert!(ch.opened_at >= pr.opened_at);
        assert!(ch.closed_at.unwrap() <= pr.closed_at.unwrap());
        assert_eq!(pr.duration().unwrap(), pr.closed_at.unwrap() - pr.opened_at);
    }

    #[test]
    fn note_bound_drops_but_tallies_stay_exact() {
        let mut t = SpanTree::new(16);
        t.open(0, NO_REGION, 0);
        for i in 0..40 {
            t.fold(&check(0, i, 7, i % 2 == 0));
        }
        assert_eq!(t.notes().len(), 16);
        assert_eq!(t.notes_dropped(), 24);
        assert_eq!(t.check_sites().runs(7), 40, "fold is exact despite drops");
        assert_eq!(t.check_sites().fails(7), 20);
        assert_eq!(t.total_checks(), 40);
        assert_eq!(t.spans()[0].last_touch, 39, "so is the last touch");
    }

    #[test]
    fn verify_catches_unbalanced_and_misnested_trees() {
        let mut h = Heap::with_defaults();
        h.enable_spans(64);
        let r = h.new_region();
        // Balanced so far.
        assert!(h.seal_spans().is_ok());
        // Tamper: close the live region's span.
        let mut t = h.take_spans().unwrap();
        t.close(r.0, 5, 0);
        h.enable_spans(64);
        // Fresh tree is consistent again.
        assert!(h.seal_spans().is_ok());
        // The tampered tree fails against the same region table.
        let msg = t.verify(&h.regions).unwrap_err();
        assert!(msg.contains("closed=true"), "{msg}");
    }

    #[test]
    fn unwind_closes_every_span_bottom_up() {
        let mut h = Heap::with_defaults();
        h.enable_spans(1024);
        let a = h.new_region();
        let b = h.new_subregion(a).unwrap();
        let _c = h.new_subregion(b).unwrap();
        assert_eq!(h.unwind_regions(), 3);
        assert!(h.seal_spans().is_ok());
        let t = h.take_spans().unwrap();
        assert_eq!(t.open_count(), 1, "only the traditional span survives");
    }

    /// A shard-shaped tree: root span plus `extra` regions with distinct
    /// counters, one alloc note each, and some traditional-region
    /// activity to exercise the root fold.
    fn shard_tree(extra: u32, salt: u64) -> SpanTree {
        let mut t = SpanTree::new(64);
        t.open(0, NO_REGION, 0);
        t.fold(&Event::Alloc { region: 0, site: 1, words: salt as u32 + 1, at: salt });
        for r in 1..=extra {
            let at = salt + r as u64;
            t.fold(&Event::SubregionCreated { region: r, parent: r - 1, born_at: at, at });
            t.fold(&Event::Alloc { region: r, site: r, words: r, at });
            t.fold(&check(r, at, 10 + r, r % 2 == 0));
            t.fold(&Event::RegionDeleted {
                region: r,
                live_words: r as u64,
                lifetime_cycles: 100,
                at: at + 100,
            });
        }
        t
    }

    #[test]
    fn merge_grafts_spans_densely_and_folds_the_root() {
        let mut a = shard_tree(2, 0);
        let b = shard_tree(3, 50);
        let (root_allocs, root_words) = (a.spans()[0].allocs, a.spans()[0].alloc_words);
        a.merge(&b);
        // 1 root + 2 own + 3 grafted, regions renumbered densely.
        assert_eq!(a.spans().len(), 6);
        a.structurally_well_formed().unwrap();
        // b's regions 1..=3 landed at 3..=5; b's region 2 (parent 1) now
        // has parent 3.
        assert_eq!(a.spans()[4].parent, 3);
        assert_eq!(a.spans()[3].parent, TRADITIONAL.0, "grafted top region hangs off the root");
        // b's traditional activity folded into a's root span.
        assert_eq!(a.spans()[0].allocs, root_allocs + 1);
        assert_eq!(a.spans()[0].alloc_words, root_words + 51);
        // Exact tallies: site 11 fired once in each tree.
        assert_eq!(a.check_sites().runs(11), 2);
        // Grafted notes kept emission order with remapped regions.
        let last = *a.notes().last().unwrap();
        assert!(matches!(last, Event::CheckRun { region: 5, .. }), "{last:?}");
    }

    #[test]
    fn merge_is_associative_but_not_commutative() {
        let (a, b, c) = (shard_tree(1, 0), shard_tree(2, 10), shard_tree(3, 20));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        let mut swapped = a.clone();
        swapped.merge(&c);
        swapped.merge(&b);
        assert_ne!(left, swapped, "join order is part of the result");
    }

    #[test]
    fn merge_keeps_the_first_verification_failure() {
        let mut a = shard_tree(1, 0);
        a.set_verified(Ok(()));
        let mut b = shard_tree(1, 5);
        b.set_verified(Err("shard 1: misnested".into()));
        let mut c = shard_tree(1, 9);
        c.set_verified(Err("shard 2: misnested".into()));
        a.merge(&b);
        a.merge(&c);
        assert_eq!(a.verification(), Some(&Err("shard 1: misnested".into())));
    }

    #[test]
    fn structurally_well_formed_rejects_broken_indexing() {
        let mut t = shard_tree(2, 0);
        t.structurally_well_formed().unwrap();
        t.close(2, 1000, 0);
        t.structurally_well_formed().unwrap();
        let mut bad = SpanTree::new(16);
        bad.open(0, NO_REGION, 0);
        bad.spans[0].region = 7;
        assert!(bad.structurally_well_formed().is_err());
    }

    #[test]
    fn enable_spans_seeds_existing_regions() {
        let mut h = Heap::with_defaults();
        let r = h.new_region();
        let dead = h.new_region();
        h.delete_region(dead).unwrap();
        h.enable_spans(64);
        assert!(h.seal_spans().is_ok());
        let t = h.spans().unwrap();
        assert_eq!(t.spans().len(), 3);
        assert!(t.spans()[r.0 as usize].closed_at.is_none());
        assert!(t.spans()[dead.0 as usize].closed_at.is_some());
    }
}
