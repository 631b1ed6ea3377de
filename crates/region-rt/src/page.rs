//! The page store and the page → owner map.
//!
//! Each 8 KB page belongs to exactly one owner, "and the library maintains a
//! map from pages to regions. This allows efficient implementation of the
//! `regionof` function and of reference counting" (paper §3.3.1).

use crate::addr::{Addr, WORDS_PER_PAGE};
use crate::cost::Cycles;
use crate::error::RtError;
use crate::fault::{FaultArm, STAMP_PENDING};
use crate::region::RegionId;

/// Who owns a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageOwner {
    /// Not currently allocated to anyone.
    Free,
    /// Owned by a region's allocators (the traditional region's pages use
    /// this too, including the malloc heap, which the paper folds into the
    /// "traditional region").
    Region(RegionId),
    /// Owned by the conservative-GC baseline's heap.
    Gc,
}

/// The backing store: page data plus the page → owner map.
#[derive(Debug)]
pub struct PageStore {
    pages: Vec<Box<[u64]>>,
    owners: Vec<PageOwner>,
    free: Vec<u32>,
    /// Maximum number of pages that may ever be allocated (0 = unlimited).
    page_budget: usize,
    /// Armed fault plane for fresh page acquisition (None = disabled; the
    /// hot path pays one branch, like `sample_tick`). The arm lives down
    /// here because `grow` has no access to the heap's virtual clock, so
    /// its injections are stamped [`STAMP_PENDING`] and back-filled by the
    /// heap's OOM error paths.
    fault: Option<Box<FaultArm>>,
}

impl PageStore {
    /// Creates a store. Page 0 is reserved so that address 0 is never a
    /// valid object address.
    pub fn new(page_budget: usize) -> PageStore {
        PageStore {
            pages: vec![vec![0u64; WORDS_PER_PAGE].into_boxed_slice()],
            owners: vec![PageOwner::Free],
            free: Vec::new(),
            page_budget,
            fault: None,
        }
    }

    /// Rebuilds a store from a snapshot's page → owner map and free chain
    /// (restore path). `owners` covers the committed pages `1..`; the
    /// reserved page 0 is prepended here. Page *contents* are not part of
    /// a snapshot, so every page comes back zeroed; the restore layer
    /// rewrites the words it needs (counted holder slots) afterwards.
    pub(crate) fn from_snapshot(
        owners: Vec<PageOwner>,
        free: Vec<u32>,
        page_budget: usize,
    ) -> PageStore {
        let mut all = Vec::with_capacity(owners.len() + 1);
        all.push(PageOwner::Free);
        all.extend(owners);
        PageStore {
            pages: all.iter().map(|_| vec![0u64; WORDS_PER_PAGE].into_boxed_slice()).collect(),
            owners: all,
            free,
            page_budget,
            fault: None,
        }
    }

    /// Installs (or clears) the page-acquire fault arm.
    pub fn set_fault_arm(&mut self, arm: Option<Box<FaultArm>>) {
        self.fault = arm;
    }

    /// Detaches and returns the page-acquire fault arm, if any.
    pub fn take_fault_arm(&mut self) -> Option<Box<FaultArm>> {
        self.fault.take()
    }

    /// Whether a page-acquire fault arm is installed.
    pub fn fault_armed(&self) -> bool {
        self.fault.is_some()
    }

    /// Back-fills pending virtual-clock stamps on the page arm's injection
    /// log (called from the heap's out-of-memory error paths, where the
    /// clock is in scope).
    pub fn stamp_fault(&mut self, at: Cycles) {
        if let Some(arm) = self.fault.as_mut() {
            arm.stamp_pending(at);
        }
    }

    /// Total pages ever created (including the reserved page 0).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages ever committed, excluding the reserved page 0.
    pub fn pages_committed(&self) -> usize {
        self.pages.len() - 1
    }

    /// Committed pages currently assigned to an owner, per the page map
    /// (the ground truth the timeline sampler and auditor report against).
    pub fn pages_in_use(&self) -> usize {
        // The reserved page 0 is marked Free, so it never counts here.
        self.owners.iter().filter(|&&o| o != PageOwner::Free).count()
    }

    /// Committed pages sitting in the free pool, awaiting recycling.
    pub fn pages_free(&self) -> usize {
        self.free.len()
    }

    /// The free pool itself, in release order (the tail is recycled
    /// first); snapshots record it so the page map round-trips exactly.
    pub fn free_chain(&self) -> &[u32] {
        &self.free
    }

    /// Acquires one page for `owner`, recycling a free page if possible.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn acquire(&mut self, owner: PageOwner) -> Result<u32, RtError> {
        Ok(self.acquire2(owner)?.0)
    }

    /// As [`PageStore::acquire`], also reporting whether the page was
    /// recycled from the free pool (cheap) rather than fetched fresh
    /// (expensive) — the distinction the cost model charges.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn acquire2(&mut self, owner: PageOwner) -> Result<(u32, bool), RtError> {
        debug_assert!(owner != PageOwner::Free);
        if let Some(p) = self.free.pop() {
            self.owners[p as usize] = owner;
            self.pages[p as usize].fill(0);
            return Ok((p, true));
        }
        Ok((self.grow(owner)?, false))
    }

    /// Acquires `n` *contiguous* fresh pages (for objects larger than one
    /// page); contiguity is guaranteed by always growing the store.
    ///
    /// # Errors
    ///
    /// Returns [`RtError::OutOfMemory`] if the page budget is exhausted.
    pub fn acquire_span(&mut self, owner: PageOwner, n: usize) -> Result<u32, RtError> {
        debug_assert!(n >= 1);
        let first = self.grow(owner)?;
        for _ in 1..n {
            self.grow(owner)?;
        }
        Ok(first)
    }

    fn grow(&mut self, owner: PageOwner) -> Result<u32, RtError> {
        if let Some(arm) = self.fault.as_mut() {
            if arm.tick(STAMP_PENDING) {
                return Err(RtError::OutOfMemory);
            }
        }
        if self.page_budget != 0 && self.pages.len() >= self.page_budget {
            return Err(RtError::OutOfMemory);
        }
        let idx = self.pages.len() as u32;
        self.pages.push(vec![0u64; WORDS_PER_PAGE].into_boxed_slice());
        self.owners.push(owner);
        Ok(idx)
    }

    /// Returns a page to the free pool.
    pub fn release(&mut self, page: u32) {
        debug_assert!(self.owners[page as usize] != PageOwner::Free, "double release");
        self.owners[page as usize] = PageOwner::Free;
        self.free.push(page);
    }

    /// The owner of the page containing `addr` (the `regionof` primitive is
    /// built on this).
    #[inline]
    pub fn owner_of(&self, addr: Addr) -> PageOwner {
        self.owners.get(addr.page() as usize).copied().unwrap_or(PageOwner::Free)
    }

    /// The owner of a page by index.
    #[inline]
    pub fn owner(&self, page: u32) -> PageOwner {
        self.owners[page as usize]
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the page does not exist (a wild pointer, which callers
    /// validate first).
    #[inline]
    pub fn read(&self, addr: Addr) -> u64 {
        self.pages[addr.page() as usize][addr.word() as usize]
    }

    /// Writes the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, val: u64) {
        self.pages[addr.page() as usize][addr.word() as usize] = val;
    }

    /// Whether `addr` names a word in a live (non-free) page.
    #[inline]
    pub fn is_live(&self, addr: Addr) -> bool {
        !addr.is_null() && self.owner_of(addr) != PageOwner::Free
    }

    /// All words of one page (for scanning).
    pub fn page_words(&self, page: u32) -> &[u64] {
        &self.pages[page as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_zero_reserved_and_free() {
        let s = PageStore::new(0);
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.owner(0), PageOwner::Free);
    }

    #[test]
    fn acquire_release_recycles() {
        let mut s = PageStore::new(0);
        let r = RegionId(1);
        let p1 = s.acquire(PageOwner::Region(r)).unwrap();
        s.write(Addr::from_parts(p1, 5), 42);
        s.release(p1);
        let p2 = s.acquire(PageOwner::Gc).unwrap();
        assert_eq!(p1, p2, "free pages are recycled");
        assert_eq!(s.read(Addr::from_parts(p2, 5)), 0, "recycled pages are zeroed");
    }

    #[test]
    fn budget_enforced() {
        let mut s = PageStore::new(3); // page 0 + two usable
        assert!(s.acquire(PageOwner::Gc).is_ok());
        assert!(s.acquire(PageOwner::Gc).is_ok());
        assert_eq!(s.acquire(PageOwner::Gc), Err(RtError::OutOfMemory));
    }

    #[test]
    fn span_is_contiguous() {
        let mut s = PageStore::new(0);
        let first = s.acquire_span(PageOwner::Region(RegionId(1)), 3).unwrap();
        for i in 0..3 {
            assert_eq!(s.owner(first + i), PageOwner::Region(RegionId(1)));
        }
    }

    #[test]
    fn usage_gauges_partition_committed_pages() {
        let mut s = PageStore::new(0);
        assert_eq!((s.pages_committed(), s.pages_in_use(), s.pages_free()), (0, 0, 0));
        let p1 = s.acquire(PageOwner::Gc).unwrap();
        let _p2 = s.acquire(PageOwner::Region(RegionId(1))).unwrap();
        assert_eq!((s.pages_committed(), s.pages_in_use(), s.pages_free()), (2, 2, 0));
        s.release(p1);
        assert_eq!((s.pages_committed(), s.pages_in_use(), s.pages_free()), (2, 1, 1));
        // Recycling moves it back without committing anything new.
        s.acquire(PageOwner::Gc).unwrap();
        assert_eq!((s.pages_committed(), s.pages_in_use(), s.pages_free()), (2, 2, 0));
    }

    #[test]
    fn fault_arm_fails_fresh_growth_but_not_recycling() {
        use crate::fault::{FaultMode, FaultPlane};
        let mut s = PageStore::new(0);
        let p1 = s.acquire(PageOwner::Gc).unwrap();
        s.release(p1);
        s.set_fault_arm(Some(Box::new(FaultArm::new(
            FaultPlane::PageAcquire,
            FaultMode::nth(1),
            true,
        ))));
        // Recycled pages bypass grow, so the arm does not see them.
        assert!(s.acquire(PageOwner::Gc).is_ok(), "recycle unaffected");
        assert_eq!(s.acquire(PageOwner::Gc), Err(RtError::OutOfMemory));
        assert_eq!(s.acquire(PageOwner::Gc), Err(RtError::OutOfMemory), "sticky");
        s.stamp_fault(77);
        let arm = s.take_fault_arm().unwrap();
        assert_eq!(arm.ops(), 2);
        assert!(arm.injected().iter().all(|f| f.at == 77));
        // With the arm detached, growth succeeds again.
        assert!(s.acquire(PageOwner::Gc).is_ok());
    }

    #[test]
    fn owner_of_out_of_range_is_free() {
        let s = PageStore::new(0);
        assert_eq!(s.owner_of(Addr::from_parts(999, 0)), PageOwner::Free);
        assert!(!s.is_live(Addr::from_parts(999, 0)));
        assert!(!s.is_live(Addr::NULL));
    }
}
