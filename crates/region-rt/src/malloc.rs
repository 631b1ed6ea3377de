//! The `malloc/free` baseline ("lea" in Figure 7).
//!
//! The paper compares RC against gcc with "Doug Lea's malloc/free
//! replacement library", and for originally-region-based benchmarks it uses
//! "a simple region-emulation library that uses malloc and free to allocate
//! and free each individual object". This module provides a size-class
//! free-list allocator over the shared page store; malloc pages belong to
//! the traditional region, so `regionof` on a malloc'd object reports the
//! traditional region exactly as the paper specifies.

use std::collections::HashMap;

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::error::RtError;
use crate::heap::Heap;
use crate::layout::TypeId;
use crate::page::PageOwner;
use crate::region::TRADITIONAL;

/// Size classes in payload words. The final class is one full page.
pub const SIZE_CLASSES: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, WORDS_PER_PAGE];

/// Picks the smallest class holding `words`, or `None` for oversized
/// allocations (which get dedicated page spans).
pub fn size_class(words: usize) -> Option<usize> {
    SIZE_CLASSES.iter().position(|&c| c >= words)
}

/// Metadata for one live malloc allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MallocObj {
    /// Element type.
    pub ty: TypeId,
    /// Element count.
    pub count: u32,
    /// Size class index, or `None` for a dedicated page span.
    pub class: Option<u8>,
    /// For spans: number of pages.
    pub span_pages: u32,
    /// Payload words actually requested.
    pub words: u32,
    /// Source line that performed the allocation (0 = unattributed), for
    /// snapshot retained-word attribution.
    pub site: u32,
}

/// State of the malloc baseline allocator.
///
/// A size class hands out its most recently freed slot first, else the
/// next uncarved slot of its current page, in address order, as Lea's
/// malloc splits chunks off its top. A class takes a fresh page only when
/// it has neither.
#[derive(Debug)]
pub struct MallocState {
    /// Freed slots per size class, last freed on top.
    free_lists: Vec<Vec<Addr>>,
    /// Per size class, the page it carves slots from and the word offset
    /// of that page's next uncarved slot: `WORDS_PER_PAGE` before the
    /// class's first page and once a page is carved out.
    carve: [(u32, usize); SIZE_CLASSES.len()],
    live: HashMap<u64, MallocObj>,
}

impl Default for MallocState {
    fn default() -> MallocState {
        MallocState::new()
    }
}

impl MallocState {
    /// Empty allocator state.
    pub fn new() -> MallocState {
        MallocState::from_snapshot(vec![Vec::new(); SIZE_CLASSES.len()], HashMap::new())
    }

    /// Rebuilds malloc state from a snapshot (restore path). Free-list
    /// entries are placeholder slots on the reserved page 0 that only
    /// reproduce per-class depths, and no class has a page to carve, so
    /// the next allocation that finds its list empty takes a fresh page.
    /// A restored heap is for validation and inspection, and its free
    /// lists are depth-faithful, not address-faithful (snapshots record
    /// depths only).
    pub(crate) fn from_snapshot(
        free_lists: Vec<Vec<Addr>>,
        live: HashMap<u64, MallocObj>,
    ) -> MallocState {
        debug_assert_eq!(free_lists.len(), SIZE_CLASSES.len());
        MallocState { free_lists, carve: [(0, WORDS_PER_PAGE); SIZE_CLASSES.len()], live }
    }

    /// Live allocation metadata for the auditor.
    pub fn live_objects(&self) -> impl Iterator<Item = (Addr, &MallocObj)> + '_ {
        self.live.iter().map(|(&a, o)| (Addr::from_raw(a), o))
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total free slots across all size classes — the timeline's
    /// external-fragmentation gauge for the malloc baseline (slots freed,
    /// or on a class's current page and not yet carved).
    pub fn free_list_depth(&self) -> usize {
        (0..SIZE_CLASSES.len()).map(|class| self.depth(class)).sum()
    }

    /// Free slots per size class, parallel to [`SIZE_CLASSES`] — the
    /// snapshot's fragmentation breakdown.
    pub fn free_list_depths(&self) -> Vec<u32> {
        (0..SIZE_CLASSES.len()).map(|class| self.depth(class) as u32).collect()
    }

    /// One class's free slots: those freed, plus the uncarved rest of its
    /// current page, which the class hands out before it takes a page.
    fn depth(&self, class: usize) -> usize {
        self.free_lists[class].len() + (WORDS_PER_PAGE - self.carve[class].1) / SIZE_CLASSES[class]
    }
}

impl Heap {
    /// `malloc`-style allocation of `count` elements of `ty` into the
    /// traditional region's heap.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn m_alloc(&mut self, ty: TypeId, count: u32) -> Result<Addr, RtError> {
        debug_assert!(count >= 1);
        self.fault_alloc_tick()?;
        let words = self.types.get(ty).size_words() * count as usize;
        let mut cycles = self.costs.malloc_alloc;
        let addr = match size_class(words) {
            Some(class) => {
                let stride = SIZE_CLASSES[class];
                let addr = match self.malloc.free_lists[class].pop() {
                    Some(a) => a,
                    None => {
                        if self.malloc.carve[class].1 + stride > WORDS_PER_PAGE {
                            // Start carving a fresh page into this class.
                            cycles += self.costs.malloc_slow_extra;
                            let (page, recycled) = self
                                .store
                                .acquire2(PageOwner::Region(TRADITIONAL))
                                .map_err(|e| self.fault_stamp_oom(e))?;
                            cycles += if recycled {
                                self.costs.page_recycle
                            } else {
                                self.costs.page_fetch
                            };
                            self.malloc.carve[class] = (page, 0);
                        }
                        let (page, next) = &mut self.malloc.carve[class];
                        let a = Addr::from_parts(*page, *next as u32);
                        *next += stride;
                        a
                    }
                };
                // Recycled slots may hold stale data.
                for w in 0..stride {
                    self.store.write(addr.offset(w), 0);
                }
                self.malloc.live.insert(
                    addr.raw(),
                    MallocObj {
                        ty,
                        count,
                        class: Some(class as u8),
                        span_pages: 0,
                        words: words as u32,
                        site: self.trace_site,
                    },
                );
                addr
            }
            None => {
                let span = words.div_ceil(WORDS_PER_PAGE);
                cycles += self.costs.malloc_slow_extra + span as u64 * self.costs.page_fetch;
                let first = self
                    .store
                    .acquire_span(PageOwner::Region(TRADITIONAL), span)
                    .map_err(|e| self.fault_stamp_oom(e))?;
                let addr = Addr::from_parts(first, 0);
                self.malloc.live.insert(
                    addr.raw(),
                    MallocObj {
                        ty,
                        count,
                        class: None,
                        span_pages: span as u32,
                        words: words as u32,
                        site: self.trace_site,
                    },
                );
                addr
            }
        };
        self.stats.alloc_cycles += cycles;
        self.clock.charge(cycles);
        self.stats.malloc_calls += 1;
        self.stats.objects_allocated += 1;
        self.stats.words_allocated += words as u64;
        self.stats.add_live(words as u64);
        // malloc objects belong to the traditional region.
        self.emit(|h| crate::trace::Event::Alloc {
            region: TRADITIONAL.0,
            site: h.trace_site,
            words: words as u32,
            at: h.clock.cycles(),
        });
        self.sample_tick();
        Ok(addr)
    }

    /// `free` of a malloc'd object. With reference counting on, the counts
    /// its counted slots hold are released first, as a deleted region's
    /// are (the slot walk of the unscan, at no charge), and doomed regions
    /// this unblocks are reclaimed.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::InvalidFree`] if `addr` is not a live malloc
    /// allocation (double free, or a pointer from another allocator).
    pub fn m_free(&mut self, addr: Addr) -> Result<(), RtError> {
        let obj = self.malloc.live.remove(&addr.raw()).ok_or(RtError::InvalidFree { addr })?;
        if self.rc_enabled {
            let mut released = Vec::new();
            self.counted_targets(addr, obj.ty, obj.count, TRADITIONAL, &mut released);
            for tgt in &released {
                self.regions[tgt.0 as usize].rc -= 1;
            }
            if !released.is_empty() {
                self.sweep_doomed();
            }
        }
        match obj.class {
            Some(class) => self.malloc.free_lists[class as usize].push(addr),
            None => {
                for p in 0..obj.span_pages {
                    self.store.release(addr.page() + p);
                }
            }
        }
        self.clock.charge(self.costs.malloc_free);
        self.stats.free_calls += 1;
        self.stats.sub_live(obj.words as u64);
        self.sample_tick();
        Ok(())
    }

    /// Live malloc allocation count (test helper).
    pub fn m_live_count(&self) -> usize {
        self.malloc.live_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TypeLayout;

    fn setup() -> (Heap, TypeId, TypeId) {
        let mut h = Heap::with_defaults();
        let small = h.register_type(TypeLayout::data("small", 3));
        let big = h.register_type(TypeLayout::data("big", 2000));
        (h, small, big)
    }

    #[test]
    fn size_class_selection() {
        assert_eq!(size_class(1), Some(0));
        assert_eq!(size_class(3), Some(2));
        assert_eq!(size_class(4), Some(2));
        assert_eq!(size_class(5), Some(3));
        assert_eq!(size_class(WORDS_PER_PAGE), Some(10));
        assert_eq!(size_class(WORDS_PER_PAGE + 1), None);
    }

    #[test]
    fn malloc_objects_are_traditional() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        assert_eq!(h.region_of(a), Ok(TRADITIONAL));
    }

    #[test]
    fn free_list_recycles_slots() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        h.write_int(a, 0, 7).unwrap();
        h.m_free(a).unwrap();
        let b = h.m_alloc(small, 1).unwrap();
        assert_eq!(a, b, "same class reuses the freed slot (LIFO)");
        assert_eq!(h.read_word(b, 0).unwrap(), 0, "recycled memory is zeroed");
    }

    #[test]
    fn free_releases_the_counts_its_slots_hold() {
        use crate::layout::{PtrKind, SlotKind};
        use crate::rcops::WriteMode;
        let mut h = Heap::with_defaults();
        let cell = h.register_type(TypeLayout::data("cell", 1));
        let arr = h.register_type(TypeLayout::new("arr", vec![SlotKind::Ptr(PtrKind::Counted); 2]));
        let r = h.new_region();
        let obj = h.ralloc(r, cell).unwrap();
        let a = h.m_alloc(arr, 1).unwrap();
        h.write_ptr(a, 0, obj, WriteMode::Counted).unwrap();
        h.write_ptr(a, 1, obj, WriteMode::Counted).unwrap();
        assert_eq!(h.region_rc(r), 2);
        let cycles = h.clock.cycles();
        h.m_free(a).unwrap();
        assert_eq!(h.region_rc(r), 0, "both slots' counts are released");
        assert_eq!(h.clock.cycles() - cycles, h.costs.malloc_free, "at no extra charge");
        h.delete_region(r).unwrap();
    }

    #[test]
    fn double_free_detected() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        h.m_free(a).unwrap();
        assert_eq!(h.m_free(a), Err(RtError::InvalidFree { addr: a }));
    }

    #[test]
    fn large_objects_use_page_spans() {
        let (mut h, _, big) = setup();
        let a = h.m_alloc(big, 1).unwrap();
        assert_eq!(a.word(), 0);
        let pages_before = h.store.page_count();
        h.m_free(a).unwrap();
        // Freed span pages are recycled by later allocations.
        let b = h.m_alloc(big, 1).unwrap();
        // No net page growth beyond at most the span again.
        assert!(h.store.page_count() <= pages_before + 2);
        assert!(!b.is_null());
    }

    #[test]
    fn live_gauge_tracks_malloc_free() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 4).unwrap();
        assert_eq!(h.stats.live_words, 12);
        h.m_free(a).unwrap();
        assert_eq!(h.stats.live_words, 0);
        assert_eq!(h.m_live_count(), 0);
    }

    #[test]
    fn free_list_depth_tracks_carving_and_frees() {
        let (mut h, small, _) = setup();
        assert_eq!(h.malloc.free_list_depth(), 0);
        let a = h.m_alloc(small, 1).unwrap();
        // Size class 4 carves a page into 256 slots and hands one out.
        assert_eq!(h.malloc.free_list_depth(), 255);
        h.m_free(a).unwrap();
        assert_eq!(h.malloc.free_list_depth(), 256);
    }

    /// The allocator as it was before slots were carved on demand: a
    /// class whose free list is empty takes a fresh page and pushes every
    /// slot of it, last slot first, and each allocation pops the top.
    struct EagerModel {
        lists: Vec<Vec<Addr>>,
        next_page: u32,
        cycles: u64,
    }

    impl EagerModel {
        fn alloc(&mut self, class: usize, costs: &crate::cost::CostModel) -> Addr {
            self.cycles += costs.malloc_alloc;
            if self.lists[class].is_empty() {
                self.cycles += costs.malloc_slow_extra + costs.page_fetch;
                let stride = SIZE_CLASSES[class];
                for i in (0..WORDS_PER_PAGE / stride).rev() {
                    self.lists[class].push(Addr::from_parts(self.next_page, (i * stride) as u32));
                }
                self.next_page += 1;
            }
            self.lists[class].pop().unwrap()
        }

        fn depths(&self) -> Vec<u32> {
            self.lists.iter().map(|l| l.len() as u32).collect()
        }
    }

    #[test]
    fn on_demand_carving_matches_eager_model() {
        // Classes 0 and 4 carve 1,024 and 64 slots a page, class 9 two
        // and class 10 one, so pages run out and fresh ones are taken.
        const CLASSES: [usize; 4] = [0, 4, 9, 10];
        let mut h = Heap::with_defaults();
        let tys: Vec<TypeId> = CLASSES
            .iter()
            .map(|&c| h.register_type(TypeLayout::data("slot", SIZE_CLASSES[c])))
            .collect();
        let mut model = EagerModel {
            lists: vec![Vec::new(); SIZE_CLASSES.len()],
            next_page: h.store.page_count() as u32,
            cycles: h.clock.cycles(),
        };
        let mut rng = 0x5eed_u64;
        let mut live: Vec<(Addr, usize)> = Vec::new();
        let mut first_use = [true; SIZE_CLASSES.len()];
        let mut restores = 0;
        for step in 0..1500 {
            if live.is_empty() || crate::fault::splitmix64(&mut rng) % 5 < 3 {
                let k = (crate::fault::splitmix64(&mut rng) % CLASSES.len() as u64) as usize;
                let class = CLASSES[k];
                let a = h.m_alloc(tys[k], 1).unwrap();
                assert_eq!(a, model.alloc(class, &h.costs), "allocation {step} (class {class})");
                if std::mem::take(&mut first_use[class]) {
                    assert_eq!(h.malloc.free_lists[class].capacity(), 0, "class {class} carved");
                }
                live.push((a, class));
            } else {
                let i = (crate::fault::splitmix64(&mut rng) % live.len() as u64) as usize;
                let (a, class) = live.swap_remove(i);
                h.m_free(a).unwrap();
                model.lists[class].push(a);
                model.cycles += h.costs.malloc_free;
            }
            assert_eq!(h.malloc.free_list_depths(), model.depths(), "after step {step}");
            assert_eq!(h.malloc.free_list_depth(), model.lists.iter().map(Vec::len).sum());
            assert_eq!(h.clock.cycles(), model.cycles, "after step {step}");
            if step % 250 == 125 {
                assert!(
                    h.malloc.carve.iter().any(|&(_, next)| next > 0 && next < WORDS_PER_PAGE),
                    "some class is mid-page at step {step}"
                );
                let restored =
                    Heap::restore(&h.snapshot(crate::snapshot::SnapshotReason::Exit)).unwrap();
                assert_eq!(restored.malloc.free_list_depths(), h.malloc.free_list_depths());
                restores += 1;
            }
        }
        assert!(CLASSES.iter().all(|&c| !first_use[c]), "every class was used");
        assert!(model.next_page > 20, "pages ran out: {} taken", model.next_page);
        assert_eq!(restores, 6);
    }

    #[test]
    fn distinct_objects_do_not_alias() {
        let (mut h, small, _) = setup();
        let a = h.m_alloc(small, 1).unwrap();
        let b = h.m_alloc(small, 1).unwrap();
        assert_ne!(a, b);
        h.write_int(a, 2, 1).unwrap();
        h.write_int(b, 0, 2).unwrap();
        assert_eq!(h.read_word(a, 2).unwrap(), 1);
    }
}
