//! The conservative garbage-collection baseline ("GC" in Figure 7).
//!
//! The paper's GC configuration runs the benchmarks with "the Boehm-Weiser
//! conservative garbage collector v5.3": calls to `malloc` are replaced by
//! garbage-collected allocation and calls to `free` are removed. This module
//! implements a conservative mark–sweep collector in that spirit: roots are
//! raw machine words (no type information required); any word that decodes
//! to an address inside a live GC object — including interior pointers —
//! keeps that object alive; marking scans every word of reachable objects.

use std::collections::BTreeMap;

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::error::RtError;
use crate::heap::Heap;
use crate::layout::TypeId;
use crate::malloc::{size_class, SIZE_CLASSES};
use crate::page::PageOwner;

/// Metadata for one GC-heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcObj {
    /// Element type (retained for diagnostics; marking is conservative and
    /// does not consult it).
    pub ty: TypeId,
    /// Element count.
    pub count: u32,
    /// Allocated words (the size-class slot size, ≥ requested words).
    pub slot_words: u32,
    /// Payload words actually requested (what the live-word gauge counts;
    /// `slot_words - words` is this object's internal fragmentation).
    pub words: u32,
    /// Size class, or `None` for a dedicated page span.
    pub class: Option<u8>,
    /// For spans: page count.
    pub span_pages: u32,
    /// Mark bit.
    pub marked: bool,
    /// Source line that performed the allocation (0 = unattributed), for
    /// snapshot retained-word attribution.
    pub site: u32,
}

/// State of the GC baseline.
#[derive(Debug)]
pub struct GcState {
    /// Live objects keyed by start address — a BTreeMap so conservative
    /// interior-pointer resolution is a range query.
    objects: BTreeMap<u64, GcObj>,
    free_lists: Vec<Vec<Addr>>,
    /// Bump page/cursor for fresh small allocations.
    bump_page: Option<u32>,
    bump_cursor: usize,
    allocated_since_gc: u64,
    threshold: u64,
}

impl GcState {
    /// Creates GC state with the given heap-growth threshold in words.
    pub fn new(threshold: u64) -> GcState {
        GcState {
            objects: BTreeMap::new(),
            free_lists: vec![Vec::new(); SIZE_CLASSES.len()],
            bump_page: None,
            bump_cursor: WORDS_PER_PAGE,
            allocated_since_gc: 0,
            threshold,
        }
    }

    /// Rebuilds GC state from a snapshot (restore path). The bump page is
    /// left closed so the next allocation takes a fresh page instead of
    /// guessing at the old packing; `allocated_since_gc` restarts at 0
    /// (the snapshot does not record it, and a restored heap starting a
    /// fresh collection epoch is the conservative choice).
    pub(crate) fn from_snapshot(
        objects: BTreeMap<u64, GcObj>,
        free_lists: Vec<Vec<Addr>>,
        threshold: u64,
    ) -> GcState {
        debug_assert_eq!(free_lists.len(), SIZE_CLASSES.len());
        GcState {
            objects,
            free_lists,
            bump_page: None,
            bump_cursor: WORDS_PER_PAGE,
            allocated_since_gc: 0,
            threshold,
        }
    }

    /// Number of live GC objects.
    pub fn live_count(&self) -> usize {
        self.objects.len()
    }

    /// Live GC objects keyed by start address, in address order (the
    /// BTreeMap makes this deterministic), for the auditor and snapshots.
    pub fn live_objects(&self) -> impl Iterator<Item = (Addr, &GcObj)> + '_ {
        self.objects.iter().map(|(&a, o)| (Addr::from_raw(a), o))
    }

    /// Free slots per size class, parallel to
    /// [`SIZE_CLASSES`] — the snapshot's
    /// fragmentation breakdown for the GC heap.
    pub fn free_list_depths(&self) -> Vec<u32> {
        self.free_lists.iter().map(|l| l.len() as u32).collect()
    }

    /// Resolves a conservative root candidate to the start address of the
    /// live object containing it, if any.
    fn containing_object(&self, a: Addr) -> Option<Addr> {
        let (&start, obj) = self.objects.range(..=a.raw()).next_back()?;
        if a.raw() < start + obj.slot_words as u64 {
            Some(Addr::from_raw(start))
        } else {
            None
        }
    }
}

impl Heap {
    /// Garbage-collected allocation (the GC configuration's replacement for
    /// `malloc`). `free` has no counterpart; memory is reclaimed by
    /// [`Heap::gc_collect`].
    ///
    /// # Errors
    ///
    /// Returns [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn gc_alloc(&mut self, ty: TypeId, count: u32) -> Result<Addr, RtError> {
        debug_assert!(count >= 1);
        self.fault_alloc_tick()?;
        let words = self.types.get(ty).size_words() * count as usize;
        let mut cycles = self.costs.gc_alloc;
        let addr = match size_class(words) {
            Some(class) => {
                let slot_words = SIZE_CLASSES[class];
                let addr = if let Some(a) = self.gc.free_lists[class].pop() {
                    a
                } else {
                    if self.gc.bump_cursor + slot_words > WORDS_PER_PAGE {
                        let (page, recycled) = self
                            .store
                            .acquire2(PageOwner::Gc)
                            .map_err(|e| self.fault_stamp_oom(e))?;
                        cycles +=
                            if recycled { self.costs.page_recycle } else { self.costs.page_fetch };
                        self.gc.bump_page = Some(page);
                        self.gc.bump_cursor = 0;
                    }
                    let page = self.gc.bump_page.expect("bump page just ensured");
                    let a = Addr::from_parts(page, self.gc.bump_cursor as u32);
                    self.gc.bump_cursor += slot_words;
                    a
                };
                for w in 0..slot_words {
                    self.store.write(addr.offset(w), 0);
                }
                self.gc.objects.insert(
                    addr.raw(),
                    GcObj {
                        ty,
                        count,
                        slot_words: slot_words as u32,
                        words: words as u32,
                        class: Some(class as u8),
                        span_pages: 0,
                        marked: false,
                        site: self.trace_site,
                    },
                );
                addr
            }
            None => {
                let span = words.div_ceil(WORDS_PER_PAGE);
                cycles += span as u64 * self.costs.page_fetch;
                let first = self
                    .store
                    .acquire_span(PageOwner::Gc, span)
                    .map_err(|e| self.fault_stamp_oom(e))?;
                let addr = Addr::from_parts(first, 0);
                self.gc.objects.insert(
                    addr.raw(),
                    GcObj {
                        ty,
                        count,
                        slot_words: (span * WORDS_PER_PAGE) as u32,
                        words: words as u32,
                        class: None,
                        span_pages: span as u32,
                        marked: false,
                        site: self.trace_site,
                    },
                );
                addr
            }
        };
        self.gc.allocated_since_gc += words as u64;
        self.stats.alloc_cycles += cycles;
        self.clock.charge(cycles);
        self.stats.objects_allocated += 1;
        self.stats.words_allocated += words as u64;
        self.stats.add_live(words as u64);
        // GC pages report the traditional region, like malloc's.
        self.emit(|h| crate::trace::Event::Alloc {
            region: crate::region::TRADITIONAL.0,
            site: h.trace_site,
            words: words as u32,
            at: h.clock.cycles(),
        });
        self.sample_tick();
        Ok(addr)
    }

    /// Whether enough allocation has happened since the last collection
    /// that the caller should supply roots and run [`Heap::gc_collect`].
    pub fn gc_should_collect(&self) -> bool {
        self.gc.allocated_since_gc >= self.gc.threshold
    }

    /// Runs a conservative mark–sweep collection from the given root words.
    /// Every root word (and every word of every reachable object) that
    /// decodes to an address inside a live GC object marks that object.
    /// Returns the number of objects reclaimed.
    pub fn gc_collect(&mut self, roots: &[u64]) -> usize {
        let mut marked_words: u64 = 0;
        let mut worklist: Vec<Addr> = Vec::new();

        // Mark phase: conservative root scan.
        marked_words += roots.len() as u64;
        for &w in roots {
            if let Some(start) = self.gc.containing_object(Addr::from_raw(w)) {
                let obj = self.gc.objects.get_mut(&start.raw()).expect("resolved above");
                if !obj.marked {
                    obj.marked = true;
                    worklist.push(start);
                }
            }
        }
        while let Some(a) = worklist.pop() {
            let slot_words = self.gc.objects[&a.raw()].slot_words as usize;
            marked_words += slot_words as u64;
            for w in 0..slot_words {
                let val = self.store.read(a.offset(w));
                if let Some(start) = self.gc.containing_object(Addr::from_raw(val)) {
                    let obj = self.gc.objects.get_mut(&start.raw()).expect("resolved above");
                    if !obj.marked {
                        obj.marked = true;
                        worklist.push(start);
                    }
                }
            }
        }

        // Sweep phase: unmarked objects go back to the free lists (or
        // release their page spans); marked objects are unmarked.
        let mut reclaimed = 0usize;
        let mut freed_words = 0u64;
        let all: Vec<u64> = self.gc.objects.keys().copied().collect();
        for key in all {
            let obj = self.gc.objects[&key];
            if obj.marked {
                self.gc.objects.get_mut(&key).expect("present").marked = false;
            } else {
                self.gc.objects.remove(&key);
                let addr = Addr::from_raw(key);
                match obj.class {
                    Some(class) => self.gc.free_lists[class as usize].push(addr),
                    None => {
                        for p in 0..obj.span_pages {
                            self.store.release(addr.page() + p);
                        }
                    }
                }
                reclaimed += 1;
                freed_words += obj.words as u64;
            }
        }

        let sweep_count = self.gc.live_count() + reclaimed;
        let cycles = marked_words * self.costs.gc_mark_per_word
            + sweep_count as u64 * self.costs.gc_sweep_per_obj;
        self.stats.gc_cycles += cycles;
        self.clock.charge(cycles);
        self.stats.gc_collections += 1;
        self.stats.gc_marked_words += marked_words;
        self.stats.gc_swept_objects += reclaimed as u64;
        self.emit(|h| crate::trace::Event::GcCollection {
            marked_words,
            swept_objects: reclaimed as u64,
            at: h.clock.cycles(),
        });
        // The gauge tracks requested words on both sides of an object's
        // lifetime, so the identity live_words == region + malloc + gc
        // requested words holds exactly (snapshots verify it).
        self.stats.sub_live(freed_words);
        self.gc.allocated_since_gc = 0;
        // Tick after the pause so a due sample attributes these gc_cycles
        // to the window that ends here.
        self.sample_tick();
        reclaimed
    }

    /// Live GC object count (test helper).
    pub fn gc_live_count(&self) -> usize {
        self.gc.live_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TypeLayout;

    fn setup() -> (Heap, TypeId) {
        let mut h = Heap::with_defaults();
        let ty = h.register_type(TypeLayout::data("cell", 2));
        (h, ty)
    }

    #[test]
    fn unreachable_objects_are_reclaimed() {
        let (mut h, ty) = setup();
        let a = h.gc_alloc(ty, 1).unwrap();
        let _b = h.gc_alloc(ty, 1).unwrap();
        // Only `a` is a root.
        let reclaimed = h.gc_collect(&[a.raw()]);
        assert_eq!(reclaimed, 1);
        assert_eq!(h.gc_live_count(), 1);
    }

    #[test]
    fn reachability_is_transitive() {
        let (mut h, ty) = setup();
        let a = h.gc_alloc(ty, 1).unwrap();
        let b = h.gc_alloc(ty, 1).unwrap();
        let c = h.gc_alloc(ty, 1).unwrap();
        h.write_int(a, 0, b.raw()).unwrap();
        h.write_int(b, 0, c.raw()).unwrap();
        let reclaimed = h.gc_collect(&[a.raw()]);
        assert_eq!(reclaimed, 0);
        assert_eq!(h.gc_live_count(), 3);
        // Break the chain: b and c die.
        h.write_int(a, 0, 0).unwrap();
        assert_eq!(h.gc_collect(&[a.raw()]), 2);
    }

    #[test]
    fn interior_pointers_keep_objects_alive() {
        let (mut h, ty) = setup();
        let a = h.gc_alloc(ty, 1).unwrap();
        // A pointer into the middle of `a`.
        let interior = a.offset(1).raw();
        assert_eq!(h.gc_collect(&[interior]), 0);
        assert_eq!(h.gc_live_count(), 1);
    }

    #[test]
    fn conservative_marking_tolerates_integers() {
        let (mut h, ty) = setup();
        let a = h.gc_alloc(ty, 1).unwrap();
        // Garbage root words (not GC addresses) are ignored.
        assert_eq!(h.gc_collect(&[a.raw(), 0, u64::MAX, 12345]), 0);
        assert_eq!(h.gc_live_count(), 1);
    }

    #[test]
    fn cycles_are_collected() {
        let (mut h, ty) = setup();
        let a = h.gc_alloc(ty, 1).unwrap();
        let b = h.gc_alloc(ty, 1).unwrap();
        h.write_int(a, 0, b.raw()).unwrap();
        h.write_int(b, 0, a.raw()).unwrap();
        assert_eq!(h.gc_collect(&[]), 2, "unlike refcounting, GC reclaims cycles");
    }

    #[test]
    fn free_slots_are_reused() {
        let (mut h, ty) = setup();
        let a = h.gc_alloc(ty, 1).unwrap();
        h.gc_collect(&[]); // everything dies
        let b = h.gc_alloc(ty, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn should_collect_follows_threshold() {
        let mut h =
            Heap::new(crate::heap::HeapConfig { gc_threshold_words: 8, ..Default::default() });
        let ty = h.register_type(TypeLayout::data("cell", 2));
        assert!(!h.gc_should_collect());
        for _ in 0..4 {
            h.gc_alloc(ty, 1).unwrap();
        }
        assert!(h.gc_should_collect());
        h.gc_collect(&[]);
        assert!(!h.gc_should_collect());
    }
}
